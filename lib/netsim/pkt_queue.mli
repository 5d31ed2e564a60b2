(** Drop-tail admission and ECN marking for a link's egress queue.

    The queue holds no packets: its frames sit in the link's ring (see
    {!Link}), and this module decides and counts.  [admit] runs the
    drop-tail check and marks the Congestion Experienced codepoint when
    the occupancy after admission exceeds the configured marking
    threshold (DCTCP-style marking, the rule Clove-ECN relies on); [leave]
    takes a frame out of the occupancy when it starts serializing or is
    flushed.  Queues are sized in packets.  Only ECN-capable (ECT) packets
    are marked; others pass unmarked but still count in the occupancy. *)

type t

type stats = {
  enqueued : int;  (** admitted frames *)
  dropped : int;
  dropped_bytes : int;  (** bytes lost to drop-tail, for loss accounting *)
  marked : int;
  max_occupancy : int;  (** also updated when a drop finds the queue full *)
}

val create : ?capacity_pkts:int -> ?ecn_threshold_pkts:int -> unit -> t
(** Defaults: capacity 256 packets, ECN threshold 20 packets (the paper's
    recommended setting).  An [ecn_threshold_pkts] of 0 or less disables
    marking. *)

val admit : t -> Packet.t -> bool
(** [false] if the packet is dropped (queue full, counted in [dropped]);
    otherwise the occupancy grows by one and the packet is marked CE as
    needed.  The caller stores an admitted packet itself. *)

val leave : t -> unit
(** One admitted frame leaves the queue.  Raises [Invalid_argument] if
    the occupancy is 0. *)

val count_drop : t -> Packet.t -> unit
(** Account a packet lost outside the drop-tail path — e.g. flushed from
    the queue when its link fails — so [dropped]/[dropped_bytes] cover
    every loss at this egress and packet-conservation audits balance. *)

val length : t -> int
(** The occupancy: admitted frames that have not left. *)

val stats : t -> stats
val capacity : t -> int
