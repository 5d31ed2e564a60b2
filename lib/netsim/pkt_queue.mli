(** Drop-tail FIFO egress queue with ECN marking.

    Queues are sized in packets and mark the Congestion Experienced
    codepoint on enqueue when the instantaneous occupancy reaches the
    configured marking threshold (DCTCP-style marking, the rule Clove-ECN
    relies on).  Only ECN-capable (ECT) packets are marked; others pass
    unmarked but still experience the queueing. *)

type t

type stats = {
  enqueued : int;
  dropped : int;
  dropped_bytes : int;  (** bytes lost to drop-tail, for loss accounting *)
  marked : int;
  max_occupancy : int;  (** also updated when a drop finds the queue full *)
}

val create : ?capacity_pkts:int -> ?ecn_threshold_pkts:int -> unit -> t
(** Defaults: capacity 256 packets, ECN threshold 20 packets (the paper's
    recommended setting).  An [ecn_threshold_pkts] of 0 or less disables
    marking. *)

val enqueue : t -> Packet.t -> bool
(** [false] if the packet was dropped (queue full). Marks CE as needed. *)

val dequeue : t -> Packet.t option

val dequeue_unsafe : t -> Packet.t
(** Option-free dequeue; the queue must be non-empty (check {!is_empty}
    first).  The serializer hot loop uses this to avoid a [Some] box per
    transmitted packet. *)

val count_drop : t -> Packet.t -> unit
(** Account a packet lost outside the drop-tail path — e.g. flushed from
    the queue when its link fails — so [dropped]/[dropped_bytes] cover
    every loss at this egress and packet-conservation audits balance. *)

val length : t -> int
val is_empty : t -> bool
val stats : t -> stats
val capacity : t -> int
