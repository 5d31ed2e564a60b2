(** Priority queue of timestamped events: the scheduler's overflow heap.

    An array-based binary min-heap ordered by (time, born, src,
    insertion sequence), where [born] is the simulation instant the
    event was inserted at and [src] the owning component's id.  In a
    single-scheduler run the insertion clock is nondecreasing, so
    born-order equals seq-order and the pop sequence is the classic
    "same-instant events fire in insertion order" FIFO the
    deterministic simulator relies on.  Under PDES a boundary event
    injected at a window barrier carries the sending shard's insertion
    instant as its [born], which makes same-timestamp ties between
    injected and locally scheduled events resolve exactly as the serial
    engine would have resolved them.

    The scheduler keeps here only the events its {!Timer_wheel} refuses
    (behind the wheel's frontier, or past its horizon), and pops the
    smaller of this heap's top and the wheel run's head by {!lt}, the
    one comparator of the order.  Benchmarks and tests use the queue
    standalone.

    The heap is a structure of unboxed arrays: the four key columns are
    [int array]s compared as ints, and payloads live in a plain
    ['a array], so [add] and [pop_unsafe] allocate nothing on the hot
    path.  The caller supplies a [dummy] payload used to fill empty slots
    (a vacated slot is overwritten with [dummy] so the popped payload is
    released to the GC); the dummy itself is never returned.  The
    scheduler instantiates the queue at [int] — its payloads are
    immediate event codes (see {!Scheduler}) — but the module is
    compiled at ['a], so each payload write is a [caml_modify] call even
    then. *)

type 'a t

type tiebreak =
  | Fifo  (** same-(time, born, src) events pop in insertion order *)
  | Lifo  (** ... in reverse insertion order (the perturbation check) *)

val lt : fifo:bool -> int -> int -> int -> int -> int -> int -> int -> int -> bool
(** [lt ~fifo t1 b1 c1 s1 t2 b2 c2 s2]: whether the event keyed (time
    [t1], born [b1], src [c1], seq [s1]) pops before the one keyed
    ([t2], [b2], [c2], [s2]); [fifo] is [true] under {!Fifo}, [false]
    under {!Lifo}. *)

val create : ?capacity:int -> ?tiebreak:tiebreak -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty queue of a fixed tie-break ([Fifo]
    by default).  [dummy] pads unused array slots; any value works. *)

val add : 'a t -> time:Sim_time.t -> 'a -> unit
(** Self-sequencing add: the queue assigns the next insertion sequence. *)

val add_at_ns :
  'a t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> 'a -> unit
(** Raw add with a caller-owned insertion instant and sequence number.
    The scheduler shares one sequence stream between this heap and the
    timer wheel, so the two rank their events by one stream.  Do not mix with [add] on the same queue. *)

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

val min_born : 'a t -> int
val min_src : 'a t -> int
(** The earliest event's born instant and component id; the queue must
    be non-empty.  With {!min_time_ns} they are the key the scheduler
    reports for the event it dispatches. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
