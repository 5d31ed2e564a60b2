(** Hierarchical timing wheel for short-horizon timers, and its sorted
    run.

    Stages near-future events in O(1) slots.  [load] moves whole level-0
    windows, before the clock can reach them, into the run: their
    entries sorted by (time, born, src, seq) under {!Event_queue.lt},
    each keeping its original key.  Every entry still staged is later
    than every entry of the run, so a caller that pops the smaller of
    the run's head and its overflow {!Event_queue}'s top pops in exactly
    the order a pure binary heap would, under either FIFO or LIFO
    same-time tie-break.

    Payloads are the scheduler's immediate [int] event codes, packed with
    their keys five ints per entry: staging, loading and popping move no
    pointer.  The wheel never drops an entry.

    Fixed geometry: 3 levels of 256 slots at 64 ns granularity, covering
    ~1.07 s of simulated future.  [add] refuses times behind the
    frontier (the end of the last loaded window) or beyond the horizon;
    the caller falls back to the heap. *)

type t

val create : tiebreak:Event_queue.tiebreak -> t
(** An empty wheel whose run breaks full (time, born, src) ties as a
    heap of that [tiebreak] does. *)

val add : t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> int -> bool
(** Stage an entry; [false] if [time_ns] is behind the frontier or past
    the horizon (caller must use the overflow heap).  [seq] is the
    caller's tie-break rank, carried through to the run verbatim. *)

val load : t -> upto_ns:int -> unit
(** Refill the run once it is empty (while it holds entries, do
    nothing).  [upto_ns] is the overflow heap's top time, [max_int]
    when the heap is empty: move into the run every window starting at
    or before [upto_ns], or, for [max_int], just the earliest occupied
    window.  Afterwards the smaller of the run's head and the heap's top
    precedes every staged entry.  Empty stretches are skipped by
    occupancy scan, not granule stepping; when no staged entry can
    start by [upto_ns] it is one compare. *)

val run_first : t -> int Event_queue.t -> bool
(** Whether the run is non-empty and its head pops before the heap's
    top: {!Event_queue.lt}, at the tie-break given to {!create}. *)

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
