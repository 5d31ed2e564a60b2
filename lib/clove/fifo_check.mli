(** The runtime auditor's per-(flow, outer source port) FIFO check, one
    per vswitch: a flowlet pinned to one path is never reordered (§3).
    The sender stamps each packet with the next sequence number of its
    (flow, port) stream and the receiver checks the stamps; drops make
    gaps, never reversals.  A route change may let a packet overtake one
    sent before it, so a stamp also carries its route epoch (the
    fabric's reconvergence count), and only a reversal within one epoch
    counts. *)

type t

val create : route_epoch:(unit -> int) -> t

val stamp : t -> stream:int -> port:int -> int
(** The next stamp (>= 0) of [stream] on [port]. *)

val check : t -> Scheduler.t -> stream:int -> port:int -> stamp:int -> unit
(** Records a [flowlet-fifo] violation on the scheduler for a reversal
    within one route epoch; a negative (unstamped) [stamp] is ignored. *)
