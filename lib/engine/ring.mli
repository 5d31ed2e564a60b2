(** Growable circular FIFO padded with a caller-supplied dummy.

    Companion to the defunctionalized event path: when deliveries are
    strictly FIFO (constant per-hop delay), the payload a tagged event
    refers to is always the oldest element, so events need not capture
    it in a closure.  Elements are pushed at the tail and popped at the
    head; between the two they can be read and overwritten by position
    (0 is the oldest), and a tail can be dropped.  Nothing allocates at
    steady state. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] (default 16, at least 1) is the initial size; a full
    ring doubles below 128 slots, and grows by half from there. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Oldest element; raises [Invalid_argument] if empty.  The vacated
    slot is reset to the dummy. *)

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th oldest element; raises [Invalid_argument]
    unless [0 <= i < length t]. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i v] overwrites the [i]-th oldest element, in place; same
    range as {!get}. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the [n] oldest elements, resetting the dropped
    slots to the dummy; a no-op if [length t <= n].  Raises
    [Invalid_argument] if [n < 0]. *)

val length : 'a t -> int
