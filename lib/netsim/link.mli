(** Unidirectional link with an egress queue and a DRE utilization
    estimator.

    A link serializes packets at [rate_bps], then delivers them to the sink
    after [prop_delay].  The egress queue applies drop-tail and ECN marking.
    The paired reverse direction is a separate link.  The sink callback is
    installed at wiring time, which keeps [Link] independent of switches and
    hosts. *)

type t

val create :
  sched:Scheduler.t ->
  rate_bps:float ->
  prop_delay:Sim_time.span ->
  ?queue:Pkt_queue.t ->
  ?label:string ->
  unit ->
  t

val set_sink : t -> (Packet.t -> unit) -> unit
(** Must be called before the first [send]. *)

val send : t -> Packet.t -> unit
(** Enqueue for transmission; silently drops if the queue is full (the drop
    is counted in the queue statistics). *)

val up : t -> bool
val set_up : t -> bool -> unit
(** Taking a link down drops all queued and future packets until it is
    brought back up — models a link failure.  Packets already queued are
    flushed and counted in both [down_drops] and the queue's drop
    statistics. *)

val set_brownout :
  t -> capacity_frac:float -> loss_prob:float -> rng:Rng.t -> unit
(** Degrade the link without failing it: the serializer runs at
    [capacity_frac] of the nominal rate and each serialized packet is lost
    on the wire with probability [loss_prob], drawn from [rng] (pass a
    dedicated [Rng.split_named] substream so fault randomness never shifts
    workload streams).  [capacity_frac] must be in (0, 1] and [loss_prob]
    in [0, 1). *)

val clear_brownout : t -> unit

val set_boundary :
  t ->
  dest_sched:Scheduler.t ->
  push:(born_ns:int -> time_ns:int -> Packet.t -> unit) ->
  unit
(** Mark this link as crossing a PDES shard boundary.  Completed
    transmissions stop scheduling their wire delivery locally and instead
    hand the packet to [push] (the partition's exchange buffer for this
    link) with its delivery time and the txdone instant it was generated
    at; {!inject} later re-enters the delivery path on [dest_sched].
    Serialization, drops, brownouts and statistics are unaffected — only
    the final propagation hop is deferred. *)

val inject : t -> time_ns:int -> born_ns:int -> Packet.t -> unit
(** Deliver a buffered boundary packet at absolute [time_ns] on the
    destination shard's scheduler (installed by {!set_boundary}).  Called
    by the exchange drain at a window barrier, in the same per-link order
    the deliveries were generated; [time_ns] is always beyond the barrier
    thanks to the lookahead, so this never schedules into the past.
    [born_ns] — the sending shard's txdone instant — becomes the event's
    same-timestamp tie-break rank (see {!Scheduler.inject_tag}), keeping
    pop order identical to the serial engine's single insertion clock.
    Allocation-free (pushes the pooled packet onto the propagation ring
    and schedules a tagged event). *)

val utilization : t -> float
(** DRE-estimated utilization of this link's egress. *)

val queue : t -> Pkt_queue.t
val rate_bps : t -> float
val label : t -> string
val tx_bytes : t -> int
val tx_packets : t -> int

val down_drops : t -> int
(** Packets lost to the link being down: offered while down, flushed from
    the queue when it failed, or in serialization/flight at failure time. *)

val brownout_drops : t -> int
(** Packets lost to brownout wire corruption. *)
