(** Load sweeps: run one workload point per (scheme, params, load, seed)
    and aggregate — each point gets a fresh scenario (fabric, stacks,
    daemons), exactly like a testbed run.  Every websearch figure,
    ablation and extension grid fetches its points through one call,
    {!websearch_points}, which memoizes them and fans them across
    domains.  {!check_stability} runs a digest under each execution mode
    the figures must be invariant under: the columns of the
    [clove-sim determinism] matrix. *)

type run_opts = {
  jobs_per_conn : int;
  seeds : int list;  (** experiments are averaged over these seeds *)
  mode : Run_mode.t;  (** every run's mode: widths, knobs, auditing *)
}

val default_opts : run_opts
(** 150 jobs per connection, seeds [1; 2; 3] (the paper averages 3
    runs): the preset that produced EXPERIMENTS.md and [results/*.csv];
    {!Run_mode.default}. *)

val quick_opts : run_opts
(** 12 jobs, single seed — for smoke tests. *)

val websearch_run :
  mode:Run_mode.t ->
  scheme:Scenario.scheme ->
  params:Scenario.params ->
  load:float ->
  jobs_per_conn:int ->
  Workload.Fct_stats.t
(** One full scenario execution at one load point (single seed taken from
    [params.seed]). *)

val fan_width : Run_mode.t -> int
(** The one fan-out rule for independent runs (sweep points, incast
    seeds, {!Chaos.run}'s schemes): the {!Domain_pool.run} width is the
    mode's [domains], or 1 when its [shards >= 2] (each run then
    parallelizes inside its own scenario; pools would nest). *)

val websearch_points :
  opts:run_opts ->
  (Scenario.scheme * Scenario.params * float) list ->
  Workload.Fct_stats.t list
(** The sweep entry point: the merged FCTs over every seed in [opts] of
    each (scheme, params, load) spec, in input order.  Specs are
    memoized on their full configuration tuple, not on the execution
    mode, so figures that slice the same sweep differently (fig4c and
    fig5a/b/c) reuse the same runs.  Specs not yet in the memo run as
    one task per (spec, seed) across the domain pool, {!fan_width}
    wide, each with a private scenario, scheduler and RNG; the results
    come back by task index and are merged in seed order, and the memo
    is only ever touched from the calling domain, so the result is
    identical at any domain count. *)

val incast_point :
  mode:Run_mode.t ->
  scheme:Scenario.scheme ->
  params:Scenario.params ->
  fanout:int ->
  total_bytes:int ->
  requests:int ->
  seeds:int list ->
  float
(** Mean client goodput (bps) over the seeds, which fan out like
    {!websearch_points}' tasks. *)

val check_stability : (Run_mode.t -> string) -> string * Run_mode.outcome list
(** {!Run_mode.check_stability} of a [clove-sim determinism] row under
    [domains-2], [shards-2] and [tiebreak-lifo].  Every run starts from a
    cleared memo (its key ignores the mode), and so does the caller. *)
