(** Conservative time-window PDES coordinator.

    Partitions a simulation across per-shard {!Scheduler}s plus one
    *global* scheduler for fabric-wide control events, and advances them
    in lockstep windows bounded by the minimum cross-shard link latency
    (the lookahead).  Per window: every shard runs (in parallel, on a
    persistent {!Domain_pool}) up to the barrier, then the global
    scheduler runs to the same horizon while all shards are quiescent,
    then the boundary-event exchange buffers drain in a fixed order.
    Because no cross-shard influence can arrive sooner than the
    lookahead, the merged event schedule is equivalent to the serial one
    up to same-timestamp tie-breaking — which the schedule-perturbation
    sanitizer independently proves digest-invisible — so results are
    byte-identical at any width. *)

type t

val create :
  scheds:Scheduler.t array ->
  global:Scheduler.t ->
  window_ns:int ->
  exchange:(unit -> int) ->
  unit ->
  t
(** [exchange] drains every boundary buffer (injecting the buffered
    deliveries into their destination shards) and returns how many
    events it moved; it runs with all schedulers quiescent.  Raises if
    [scheds] is empty or [window_ns <= 0]. *)

val drive : t -> finished:(unit -> bool) -> unit
(** Run barrier windows until [finished ()].  [finished] is polled
    between windows only (never concurrently with shard execution).
    Raises [Failure] if every scheduler goes idle first — the sharded
    analogue of a serial drive loop running dry with jobs outstanding.
    Under the runtime invariant auditor (global tables), windows run
    serially on the calling domain; results are identical. *)

val window_ns : t -> int

val windows : t -> int
(** Barrier windows executed so far. *)

val stalls : t -> int
(** Shard-windows spent idle: incremented for each shard that had no
    local event within a window and only waited at its barrier. *)

val boundary_events : t -> int
(** Total boundary deliveries exchanged at barriers so far. *)

val shutdown : t -> unit
(** Join the worker domains (idempotent; a pool is only spawned once
    {!drive} has run a parallel window). *)
