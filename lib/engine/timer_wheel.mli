(** Hierarchical timing wheel for short-horizon timers.

    Stages near-future events in O(1) slots and flushes whole windows
    into an overflow {!Event_queue} heap before the clock can reach them,
    preserving each entry's original (time, seq) pair — so the combined
    structure pops in exactly the order a pure binary heap would, under
    either FIFO or LIFO same-time tie-break.

    Defaults: 3 levels of 256 slots at 64 ns granularity, covering
    ~1.07 s of simulated future.  [add] refuses times behind the flushed
    frontier or beyond the horizon; the caller falls back to the heap. *)

type 'a t

val create :
  ?bits:int ->
  ?g_bits:int ->
  ?levels:int ->
  dummy:'a ->
  keep:('a -> bool) ->
  unit ->
  'a t
(** [bits] = log2 slots per level (default 8), [g_bits] = log2 of the
    level-0 slot span in ns (default 6 = 64 ns), [levels] (default 3).
    [dummy] pads vacated payload slots; entries failing [keep] are purged
    (and counted) whenever their slot is flushed or compacted. *)

val add :
  'a t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> 'a -> bool
(** Stage an entry; [false] if [time_ns] is behind the frontier or past
    the horizon (caller must use the overflow heap).  [seq] is the
    caller's tie-break rank, carried through to the heap verbatim. *)

val advance : 'a t -> upto_ns:int -> into:'a Event_queue.t -> int
(** Flush every window starting at or before [upto_ns] into [into];
    afterwards all remaining entries are strictly later than [upto_ns].
    Empty stretches are skipped by occupancy scan, not granule stepping.
    Returns the count of dead ([keep] = false) entries purged. *)

val advance_next : 'a t -> into:'a Event_queue.t -> int
(** Flush only the earliest occupied window (for when the heap is empty);
    remaining entries are strictly later than everything flushed.
    Returns the dead-entry count purged. *)

val min_bound_ns : 'a t -> int
(** O(1) lower bound on the earliest staged entry time ([max_int] when
    empty).  If [min_bound_ns t > heap_min] the heap top is the global
    minimum and the wheel need not be advanced. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val compact : 'a t -> int
(** Purge dead entries from every slot in place; returns count purged.
    Safe at any point: live entries keep their (time, seq). *)
