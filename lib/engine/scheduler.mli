(** Discrete-event scheduler.

    The scheduler owns the simulation clock and the pending-event set,
    split between a hierarchical timing wheel (short-horizon timers) and
    an overflow binary heap (far future).  Both share one insertion-
    sequence stream and the wheel flushes whole windows into the heap
    ahead of the clock, so pop order is exactly that of a single binary
    heap under the (time, born, src, seq) total order.

    A pending event is one immediate [int], so neither structure holds
    a pointer.  Steady-state events use the defunctionalized path:
    components register a handler kind once ({!register_kind}) and
    schedule (kind, arg) pairs ({!schedule_tag}) packed into the event
    code itself, allocating nothing per event.  Closure scheduling
    remains for cancellable timers and cold paths: the event code of a
    closure names a slot in a per-scheduler slab of {!handle}s, freed
    when the event fires or is purged. *)

type t

type handle
(** A scheduled closure event that can be cancelled before it fires.
    Tagged events ({!schedule_tag}) are fire-and-forget and expose no
    handle. *)

val create : unit -> t

val now : t -> Sim_time.t
(** Current simulation time. *)

val schedule : t -> after:Sim_time.span -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t + after].  Allocates a
    handle and a closure — prefer {!schedule_tag} on per-packet paths.
    For same-timestamp tie-breaking the event ranks under the component
    whose handler is executing. *)

val schedule_at : t -> time:Sim_time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at [time]; raises [Invalid_argument]
    if [time] is in the past. *)

val schedule_as : t -> src:int -> after:Sim_time.span -> (unit -> unit) -> handle
(** {!schedule}, but ranked under component [src] (a {!fresh_src}) rather
    than the one whose handler is executing. *)

val fresh_src : unit -> int
(** Allocate a component id for the (time, born, src, seq) event order.
    Ids follow construction order on the calling domain, so they are
    identical at any shard count; same-timestamp events of different
    components rank by them, making tie-breaking shard-invariant. *)

val register_kind : t -> (int -> unit) -> int
(** Register a dispatch handler, returning its kind tag.  Called once
    per component at construction (one closure per component for its
    whole lifetime, not one per event).  Each registration draws a fresh
    component id; components that spread one logical event stream over
    several kinds override it with {!set_kind_src}.  Raises
    [Invalid_argument] past 2{^20} kinds. *)

val set_kind_src : t -> kind:int -> src:int -> unit
(** Override the component id events of [kind] rank under.  A link gives
    its locally scheduled and PDES-injected wire deliveries the same id
    so a delivery's tie-break rank does not depend on which path
    scheduled it. *)

val schedule_tag : t -> after:Sim_time.span -> kind:int -> arg:int -> unit
(** Allocation-free scheduling: at [now + after], call the handler
    registered for [kind] with [arg].  The event is the immediate code
    [kind lor (arg lsl 20)]; tagged events cannot be cancelled.  Raises
    [Invalid_argument] if [kind] is not registered or [arg] lies outside
    [\[0, max_int lsr 20\]]. *)

val inject_tag : t -> time_ns:int -> born_ns:int -> kind:int -> arg:int -> unit
(** PDES boundary injection: like {!schedule_tag} at an absolute time,
    but the event's same-timestamp tie-break rank is ([born_ns],
    [kind]'s component id): the simulation instant the *sending* shard
    created it, then the owning component's construction-order id.  A
    tie between an injected delivery and a locally scheduled event then
    resolves exactly as it would in a serial run, where both insertions
    went through one clock and the same component ids.  [born_ns] may
    lie in this scheduler's past; the event time must not.  Raises
    [Invalid_argument] if [time_ns] is in the past or precedes
    [born_ns], and on [kind] or [arg] as {!schedule_tag} does. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; cancelling a fired or cancelled event is a
    no-op.  Dead events are purged lazily (when their wheel slot
    flushes or they pop, which also frees their slab slot) and a
    compaction sweep runs whenever dead events outnumber live ones, so
    arm/cancel churn — TCP re-arming its RTO per ack — keeps the queue
    and the slab bounded by the live set. *)

val is_pending : handle -> bool

val next_time_ns : t -> int
(** Timestamp (ns) of the earliest pending live-or-dead event, or
    [max_int] when the queue is empty.  Used by the conservative PDES
    barrier loop ({!Shard}) to compute the next safe window; flushes
    due wheel windows into the heap, exactly like {!step} would. *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue.  [until] stops the clock at the given horizon
    (events beyond it remain unfired). *)

val step : t -> bool
(** Fire the single earliest event; [false] if the queue was empty. *)

val run_until : t -> until_ns:int -> unit
(** [run ~until] minus the optional-argument and closure allocations:
    drains events with timestamps at most [until_ns] and parks the
    clock at the horizon when more remain beyond it.  The PDES barrier
    loop ({!Shard.drive}) calls it once per window on its global
    scheduler. *)

val pending_events : t -> int
(** Queued events in wheel + heap, including cancelled ones awaiting
    purge. *)

val dead_events : t -> int

val events_fired : t -> int
(** Total events dispatched since creation (throughput accounting for the
    benchmark harness).  Cancelled events popped from the heap count,
    matching the pre-wheel scheduler; dead events purged in bulk do
    not. *)

val wheel_scheduled : t -> int
(** Events that entered the timing wheel. *)

val heap_scheduled : t -> int
(** Events that went straight to the overflow heap. *)

val compactions : t -> int
(** Dead-event sweeps performed. *)

val batched_events : t -> int
(** Always 0: each event is dispatched on its own; kept for existing probes. *)
