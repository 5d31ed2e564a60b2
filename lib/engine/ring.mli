(** Growable circular FIFO padded with a caller-supplied dummy.

    Companion to the defunctionalized event path: when deliveries are
    strictly FIFO (constant per-hop delay), the payload a tagged event
    refers to is always the oldest queued element, so events need not
    capture it in a closure.  [push]/[pop] are allocation-free at steady
    state. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] (default 16) is rounded up to a power of two, so index
    wrap-around is a mask. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Oldest element; raises [Invalid_argument] if empty.  The vacated
    slot is reset to the dummy. *)
