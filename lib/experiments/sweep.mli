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

(** One single-seed experiment point (the seed is [pt_params.seed]);
    the unit of work fanned across domains by {!run_points_parallel}. *)
type point = {
  pt_scheme : Scenario.scheme;
  pt_params : Scenario.params;
  pt_load : float;
  pt_jobs_per_conn : int;
}

val fan_width : Run_mode.t -> int
(** The one fan-out rule for independent runs (sweep points, incast
    seeds, {!Chaos.run}'s schemes): the {!Domain_pool.run} width is the
    mode's [domains], or 1 when its [shards >= 2] (each run then
    parallelizes inside its own scenario; pools would nest). *)

val run_points_parallel : mode:Run_mode.t -> point array -> Workload.Fct_stats.t array
(** Run every point (each with a private scenario, scheduler and RNG)
    under [mode], {!fan_width} wide, and return the results {e by point
    index}, so aggregation order — and every figure derived from it — is
    identical for 1 and N domains. *)

val websearch_points :
  opts:run_opts ->
  (Scenario.scheme * Scenario.params * float) list ->
  Workload.Fct_stats.t list
(** The sweep entry point: the merged FCTs over every seed in [opts] of
    each (scheme, params, load) spec, in input order.  Specs are
    memoized on their full configuration tuple, not on the execution
    mode, so figures that slice the same sweep differently (fig4c and
    fig5a/b/c) reuse the same runs.  Specs not yet in the memo run as
    one task per (spec, seed) across the domain pool and are merged in
    seed order; the memo is only ever touched from the calling domain,
    so the result is identical at any domain count. *)

val clear_memo : unit -> unit

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
    {!run_points_parallel}'s points. *)

val check_stability : (Run_mode.t -> string) -> string * Run_mode.outcome list
(** {!Run_mode.check_stability} of a [clove-sim determinism] row under
    [domains-2], [shards-2] and [tiebreak-lifo].  Every run starts from a
    cleared memo (its key ignores the mode), and so does the caller. *)
