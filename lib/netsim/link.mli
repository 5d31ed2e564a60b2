(** Unidirectional link with an egress queue and a DRE utilization
    estimator.

    A link serializes packets at [rate_bps], then delivers them to the sink
    after [prop_delay].  The egress queue applies drop-tail and ECN marking.
    The paired reverse direction is a separate link.  The sink callback is
    installed at wiring time, which keeps [Link] independent of switches and
    hosts.

    Event model: one event per frame, its delivery.  A frame's departure
    instant T is known when it starts serializing (start + tx at the rate
    in force then), so its delivery is scheduled then, ranked as if a
    transmit-done event at T had scheduled it.  The departure (the loss
    verdict, the next frame's start, the counters, the DRE) is replayed
    lazily, before anything reads or writes the link and at each
    delivery, so every accessor answers exactly as an event-driven
    serializer would at that point of the event order.  A frame lost on
    the wire still fires its delivery event, which delivers nothing.
    Across a PDES boundary ({!set_boundary}) the link also keeps one
    event per frame at T, on its own shard.  [set_up] and
    [set_brownout] take effect at their point of the event order, as
    documented below: a brownout re-times frames from the next start
    and judges wire loss from the next departure, including the
    serializing frame's.

    Frame store: one FIFO ring per link, oldest first, in three
    sections — the departed frames awaiting their delivery, the
    serializing frame, the queued frames.  A departure advances a
    cursor; a frame is written into the ring once, when the queue
    admits it, and its slot is cleared once, at its delivery.  A frame
    lost on the wire becomes a placeholder in its slot, and [set_up
    false] drops exactly the queued section.  The queue ({!Pkt_queue})
    admits, marks and counts, and holds no packet. *)

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
(** A host's: it takes each packet at the wire-delivery instant D.  This
    or {!set_switch_sink} must be called before the first [send]. *)

val set_switch_sink :
  t -> latency:Sim_time.span -> src:int -> (Packet.t -> unit) -> unit
(** A switch ingress lane's: its pipeline folds into the delivery, one
    event at D + [latency] ranked (D, [src]), [src] the lane's
    {!Scheduler.fresh_src}. *)

val send : t -> Packet.t -> unit
(** Enqueue for transmission; silently drops if the queue is full (the drop
    is counted in the queue statistics). *)

val up : t -> bool
val set_up : t -> bool -> unit
(** Taking a link down drops all queued and future packets until it is
    brought back up — models a link failure.  Packets already queued are
    flushed and counted in both [down_drops] and the queue's drop
    statistics.  The frame on the serializer is lost too, even if the
    link is back up before it completes: it is counted then, and only
    then does the serializer start the next frame, so a link serializes
    one frame at a time.  A packet on the wire is lost iff the link is
    down at its wire-delivery instant D, also when a switch takes it
    later. *)

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
    link), out of the link's ring, with its delivery event's time and
    rank; {!inject} later re-enters the delivery path on [dest_sched].
    Serialization, drops, brownouts and statistics are unaffected — only the final
    propagation hop is deferred.  The link then keeps one event per
    frame on its own scheduler, at the frame's departure, which hands
    the frame over.  The link must hold no frame yet; raises
    [Invalid_argument] otherwise. *)

val inject : t -> time_ns:int -> born_ns:int -> Packet.t -> unit
(** Deliver a buffered boundary packet at absolute [time_ns] on the
    destination shard's scheduler (installed by {!set_boundary}).  Called
    by the exchange drain at a window barrier, in the same per-link order
    the deliveries were generated; [time_ns] is always beyond the barrier
    thanks to the lookahead, so this never schedules into the past.
    [born_ns] — the departure instant, or D for a switch sink — becomes the
    event's same-timestamp tie-break rank (see {!Scheduler.inject_tag}),
    keeping pop order identical to the serial engine's.  Allocation-free
    at steady state (pushes the pooled packet onto the receiving side's
    ring, which {!set_boundary} created, and schedules a tagged
    event). *)

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

val overflow_drops : t -> int
(** Packets the full queue refused (the queue's [dropped] also counts
    down-link drains). *)

val in_flight : t -> int
(** Packets this link holds: queued, serializing, or on the wire. *)
