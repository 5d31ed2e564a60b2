(** Discrete-event scheduler.

    The scheduler owns the simulation clock and the pending-event set,
    one hierarchical timing wheel ({!Timer_wheel}).  The wheel loads
    whole windows into its sorted run ahead of the clock, and each step
    dispatches the run's head, so pop order is exactly that of a single
    binary heap under the (time, born, src, seq) total order.

    A pending event is one immediate [int], so the wheel holds no
    pointer.  Steady-state events use the defunctionalized path:
    components register a handler kind once ({!register_kind}) and
    schedule (kind, arg) pairs ({!schedule_tag}) packed into the event
    code itself, allocating nothing per event.  Closure scheduling
    remains for cold paths: the event code of a closure names a slot in
    a per-scheduler slab holding its thunk until it fires.

    No event is ever cancelled.  A deadline that moves or is dropped —
    a retransmission timeout, a reorder wait — is a {!timer}: arming
    it again allocates nothing, and to a later deadline queues nothing. *)

type t

val create : ?mode:Run_mode.t -> unit -> t
(** A scheduler running under [mode] ({!Run_mode.default}) for its whole
    life: its event order's tie-break and whether it audits. *)

(** {2 Runtime invariant auditor}
    Audited, the scheduler checks that dispatch times never decrease,
    and keeps the violations its own and its components' checks record. *)
type violation = { invariant : string; detail : string }

val audit : t -> bool
(** The mode's [audit], which guards every check. *)

val record_violation : t -> invariant:string -> detail:string -> unit

val violations : t -> violation list
(** The first 100 recorded, oldest first. *)

val violation_count : t -> int

val now : t -> Sim_time.t
(** Current simulation time. *)

val before_dispatching : t -> time_ns:int -> born_ns:int -> src:int -> bool
(** Whether an event keyed ([time_ns], [born_ns], [src]) would pop
    before the event this scheduler is dispatching: its key is smaller
    than that event's popped (time, born, src).  A full tie is not
    before: only [seq] would break it.  Outside a dispatch — at set-up,
    after {!run_until}, or for a shard scheduler while the PDES global
    scheduler dispatches a fault at a barrier — it is whether
    [time_ns] is at most the clock: every event at the clock's instant
    has run.  {!Link} asks it to replay the frame departures it keeps
    no event for. *)

val schedule : t -> after:Sim_time.span -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after].  The caller
    allocates the closure — prefer {!schedule_tag} on per-packet paths.
    For same-timestamp tie-breaking the event ranks under the component
    whose handler is executing. *)

val schedule_at : t -> time:Sim_time.t -> (unit -> unit) -> unit
(** [schedule_at t ~time f] runs [f] at [time]; raises [Invalid_argument]
    if [time] is in the past. *)

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
    [kind lor (arg lsl 20)].  Raises
    [Invalid_argument] if [kind] is not registered or [arg] lies outside
    [\[0, max_int lsr 20\]]. *)

val inject_tag : t -> time_ns:int -> born_ns:int -> kind:int -> arg:int -> unit
(** Like {!schedule_tag} at an absolute time, but the event's
    same-timestamp tie-break rank is ([born_ns], [kind]'s component id).
    A PDES boundary delivery passes the instant the *sending* shard
    created it, so a tie with a locally scheduled event resolves exactly
    as in a serial run, where both insertions went through one clock and
    the same component ids; a link's delivery into a switch passes its
    wire-delivery instant, which may lie ahead of the clock.  [born_ns]
    may lie in this scheduler's past or future; the event time must not
    be past.  Raises
    [Invalid_argument] if [time_ns] is in the past or precedes
    [born_ns], and on [kind] or [arg] as {!schedule_tag} does. *)

(** {2 Deadline timers} *)

type timer
(** A re-armable deadline of one scheduler: armed, it calls its handler
    once at the deadline, unless re-armed or disarmed first.  The handler
    runs with the key (deadline, arm instant, rank) a closure scheduled
    at the last arming would have had, so the order of events is that of
    cancelling and rescheduling; but nothing is cancelled.  Arming
    queues an event unless the timer's last queued event fires strictly
    before the new deadline; that one, when it fires, queues the next
    at the deadline.  The timer's other queued events are stale: each
    fires as a no-op. *)

val timer : t -> ?src:int -> arg:int -> (int -> unit) -> timer
(** [timer t ?src ~arg f], disarmed, calls [f arg] when it expires.  Its
    events rank under component [src] (a {!fresh_src}) when given, else
    under the component dispatching when it is armed.  Registers no kind
    and draws no component id; allocates nothing beyond amortized
    growth of the scheduler's timer table. *)

val arm : t -> timer -> after:Sim_time.span -> unit
(** Set the deadline to [now t + after], replacing any earlier arming.
    To a later deadline than a still-queued event of the timer it
    schedules nothing.  Raises [Invalid_argument] on a negative span. *)

val disarm : t -> timer -> unit
(** Drop the deadline; the handler does not run.  Disarming a disarmed
    timer is a no-op. *)

val armed : t -> timer -> bool
(** Armed and not yet expired.  The handler runs disarmed. *)

val next_time_ns : t -> int
(** Timestamp (ns) of the earliest pending event, stale timer events
    included, or [max_int] when the queue is empty.  Used by the conservative PDES
    barrier loop ({!Shard}) to compute the next safe window; refills
    the wheel's run from due windows, exactly like {!step} would. *)

val run : ?until:Sim_time.t -> t -> unit
(** Drain the event queue.  [until] stops the clock at the given horizon
    (events beyond it remain unfired). *)

val step : t -> bool
(** Fire the single earliest event; [false] if the queue was empty. *)

val run_until : t -> until_ns:int -> unit
(** [run ~until] minus the optional-argument and closure allocations:
    drains events with timestamps at most [until_ns] and, when more
    remain beyond it, parks the clock at the horizon if that lies ahead;
    the clock never moves backwards.  The PDES barrier loop
    ({!Shard.drive}) calls it once per window on its global scheduler. *)

(* oracle of test_engine's timer churn and scheduler model cases — lint: allow dead-export *)
val pending_events : t -> int
(** Queued events, stale timer events included. *)

val events_fired : t -> int
(** Total events dispatched since creation (throughput accounting for the
    benchmark harness), stale timer events included. *)

val wheel_scheduled : t -> int
(** Events staged in one of the wheel's windows. *)

val heap_scheduled : t -> int
(** Events not staged in a window: seated straight into the wheel's run
    (behind its frontier) or parked past its horizon. *)

val compactions : t -> int
(** Always 0: nothing is cancelled, so nothing is swept; kept for
    existing probes. *)

val batched_events : t -> int
(** Always 0: each event is dispatched on its own; kept for existing probes. *)
