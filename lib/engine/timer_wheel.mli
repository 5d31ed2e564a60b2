(** Hierarchical timing wheel and its sorted run: the scheduler's one
    store of pending events.

    Stages near-future events in O(1) slots.  Once the run is empty,
    [load] moves the earliest occupied level-0 window, whole, into it:
    its entries sorted by (time, born, src, seq) under
    {!Event_queue.lt}, each keeping its original key.  Every entry still
    staged is later than every entry of the run, so popping the run's
    head pops in exactly the order a pure binary heap would, under
    either FIFO or LIFO same-time tie-break.

    Payloads are the scheduler's immediate [int] event codes, packed with
    their keys five ints per entry: staging, loading and popping move no
    pointer.  The wheel never drops an entry.

    Fixed geometry: 3 levels of 256 slots at 64 ns granularity, covering
    ~1.07 s of simulated future.  [add] takes every time: one behind the
    frontier (the end of the last loaded window) is seated straight into
    the run, and one past the horizon is parked in the top level's
    farthest slot, to be placed again when the frontier reaches it. *)

type t

val create : tiebreak:Event_queue.tiebreak -> t
(** An empty wheel whose run breaks full (time, born, src) ties as a
    heap of that [tiebreak] does. *)

val add : t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> int -> bool
(** Keep an entry: [true] if it is staged in a window, [false] if it is
    seated straight into the run (behind the frontier) or parked past
    the horizon.  [seq] is the caller's tie-break rank, carried through
    to the run verbatim. *)

val load : t -> unit
(** Refill the run once it is empty (while it holds entries, do
    nothing): move into it the earliest occupied window, and the next
    ones until the run holds an entry.  Afterwards the run is empty only
    if the wheel is, and its head precedes every staged entry.  Empty
    stretches are skipped by occupancy scan, not granule stepping. *)

val run_empty : t -> bool
(** Whether the run holds no entry. *)

val head_time_ns : t -> int
val head_born : t -> int
val head_src : t -> int
val head_seq : t -> int
(** The key of the run's head; the run must be non-empty. *)

val pop : t -> int
(** Remove the run's head and return its payload; the run must be
    non-empty. *)

val size : t -> int
(** Entries staged or in the run. *)
