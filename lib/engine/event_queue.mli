(** Priority queue of timestamped events.

    An array-based binary min-heap ordered by (time, born, insertion
    sequence), where [born] is the simulation instant the event was
    inserted at.  In a single-scheduler run the insertion clock is
    nondecreasing, so born-order equals seq-order and the pop sequence
    is the classic "same-instant events fire in insertion order" FIFO
    the deterministic simulator relies on.  Under PDES a boundary event
    injected at a window barrier carries the sending shard's insertion
    instant as its [born], which makes same-timestamp ties between
    injected and locally scheduled events resolve exactly as the serial
    engine would have resolved them.

    The heap is a structure of unboxed arrays: the four key columns are
    [int array]s compared as ints, and payloads live in a plain
    ['a array], so [add] and [pop_unsafe] allocate nothing on the hot
    path.  The caller supplies a [dummy] payload used to fill empty slots
    (a vacated slot is overwritten with [dummy] so the popped payload is
    released to the GC); the dummy itself is never returned.  The
    scheduler instantiates the queue at [int] — its payloads are
    immediate event codes (see {!Scheduler}) — so no sift moves a
    pointer. *)

type 'a t

type tiebreak =
  | Fifo  (** same-(time, born, src) events pop in insertion order *)
  | Lifo  (** ... in reverse insertion order (the perturbation check) *)

val create : ?capacity:int -> ?tiebreak:tiebreak -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty queue of a fixed tie-break ([Fifo]
    by default).  [dummy] pads unused array slots; any value works. *)

val add : 'a t -> time:Sim_time.t -> 'a -> unit
(** Self-sequencing add: the queue assigns the next insertion sequence. *)

val add_at_ns :
  'a t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> 'a -> unit
(** Raw add with a caller-owned insertion instant and sequence number.
    The scheduler shares one sequence stream between this heap and the
    timer wheel, so wheel entries flushed into the heap keep their
    original tie-break rank.  Do not mix with [add] on the same queue. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

val pop_unsafe : 'a t -> 'a
(** Allocation-free pop of the earliest payload.  The queue must be
    non-empty (check [size]/[min_time_ns] first); the popped event's time
    is [min_time_ns] read before the call. *)

val min_time_ns : 'a t -> int
(** Earliest queued time in raw ns, or [max_int] when empty. *)

val min_seq : 'a t -> int
(** The earliest event's sequence number; the queue must be non-empty.
    The scheduler reads it before {!pop_unsafe} so a timer can tell its
    own latest event from its stale ones. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
