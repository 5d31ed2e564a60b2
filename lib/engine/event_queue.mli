(** The (time, born, src, seq) event order, and a priority queue under
    it.

    Events order by (time, born, src, insertion sequence), where [born]
    is the simulation instant the event was inserted at and [src] the
    owning component's id.  In a single-scheduler run the insertion
    clock is nondecreasing, so born-order equals seq-order and the pop
    sequence is the classic "same-instant events fire in insertion
    order" FIFO the deterministic simulator relies on.  Under PDES a
    boundary event injected at a window barrier carries the sending
    shard's insertion instant as its [born], which makes same-timestamp
    ties between injected and locally scheduled events resolve exactly
    as the serial engine would have resolved them.  {!lt} is the one
    comparator of that order; the scheduler's {!Timer_wheel} sorts its
    run by it.

    The queue, an array-based binary min-heap, is off the simulator's
    path: it is the subject of perfbench's [engine.event_queue_ns]
    microbenchmark and test_engine's bare-heap reference.  Its four key
    columns are [int array]s compared as ints, and payloads live in a
    plain ['a array], so [add] allocates nothing.  The caller supplies a
    [dummy] payload used to fill empty slots (a vacated slot is
    overwritten with [dummy] so the popped payload is released to the
    GC); the dummy itself is never returned. *)

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

(* oracle of test_engine's bare-heap reference — lint: allow dead-export *)
val add_at_ns :
  'a t -> time_ns:int -> born_ns:int -> src:int -> seq:int -> 'a -> unit
(** Raw add with a caller-owned insertion instant, component id and
    sequence number, the key the scheduler gives an event.  Do not mix
    with [add] on the same queue. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

