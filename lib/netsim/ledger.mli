(** The runtime invariant auditor's ledger of one or more scenarios:
    packet conservation summed over counters every component keeps (so
    the same at any shard count), and the violations the audited
    schedulers recorded.  A packet enters at a host's transmission or
    when a switch forwards the traceroute reply it originated, leaves at
    a host's reception or a drop, and in between a link holds it: queued,
    serializing, or on the wire, which toward a switch includes the
    switch's pipeline latency. *)

type t = {
  injected : int;
  delivered : int;
  drops : (string * int) list;
      (** by reason: [link-down], [brownout], [queue-overflow],
          [no-route], [ttl-expired] *)
  in_flight : int;
  violations : Scheduler.violation list;  (** the kept ones, in order *)
  violation_count : int;
}

val measure : Fabric.t -> scheds:Scheduler.t list -> t
(** The fabric's counters now and the violations of [scheds] in order,
    plus a [packet-conservation] one unless injected = delivered +
    dropped + in flight.  Call it between events, after the exchange. *)

val merge : t -> t -> t
(** Counters summed, violations of the first then the second. *)

val ok : t -> bool
(** No violation. *)

val pp : label:string -> Format.formatter -> t -> unit
(** [audit <label>: injected=... delivered=... dropped=... in_flight=...],
    [drop[reason]=n] per non-zero reason, then the violations. *)
