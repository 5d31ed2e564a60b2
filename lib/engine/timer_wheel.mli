(** Hierarchical timing wheel for short-horizon timers.

    Stages near-future events in O(1) slots and flushes whole windows
    into an overflow {!Event_queue} heap before the clock can reach them,
    preserving each entry's original (time, born, src, seq) key — so the
    combined structure pops in exactly the order a pure binary heap
    would, under either FIFO or LIFO same-time tie-break.

    Payloads are the scheduler's immediate [int] event codes, packed with
    their keys five ints per entry in one array per slot: staging,
    flushing and compacting move no pointer.

    Fixed geometry: 3 levels of 256 slots at 64 ns granularity, covering
    ~1.07 s of simulated future.  [add] refuses times behind the flushed
    frontier or beyond the horizon; the caller falls back to the heap. *)

type t

val create : keep:(int -> bool) -> unit -> t
(** Entries failing [keep] are purged (and counted) whenever their slot
    is flushed or compacted; [keep] sees each purged entry exactly once,
    so it may release resources the payload names. *)

val add : t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> int -> bool
(** Stage an entry; [false] if [time_ns] is behind the frontier or past
    the horizon (caller must use the overflow heap).  [seq] is the
    caller's tie-break rank, carried through to the heap verbatim. *)

val advance : t -> upto_ns:int -> into:int Event_queue.t -> int
(** Flush every window starting at or before [upto_ns] into [into];
    afterwards all remaining entries are strictly later than [upto_ns].
    Empty stretches are skipped by occupancy scan, not granule stepping.
    Returns the count of dead ([keep] = false) entries purged. *)

val advance_next : t -> into:int Event_queue.t -> int
(** Flush only the earliest occupied window (for when the heap is empty);
    remaining entries are strictly later than everything flushed.
    Returns the dead-entry count purged. *)

val min_bound_ns : t -> int
(** O(1) lower bound on the earliest staged entry time ([max_int] when
    empty).  If [min_bound_ns t > heap_min] the heap top is the global
    minimum and the wheel need not be advanced. *)

val size : t -> int
val is_empty : t -> bool

val compact : t -> int
(** Purge dead entries from every slot in place; returns count purged.
    Safe at any point: live entries keep their (time, born, src, seq). *)
