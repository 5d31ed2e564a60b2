(** Load sweeps: run one workload point per (scheme, load, seed) and
    aggregate — each point gets a fresh scenario (fabric, stacks, daemons),
    exactly like a testbed run. *)

type run_opts = {
  jobs_per_conn : int;
  seeds : int list;  (** experiments are averaged over these seeds *)
}

val default_opts : run_opts
(** 150 jobs per connection, seeds [1; 2; 3] (the paper averages 3
    runs): the preset that produced EXPERIMENTS.md and [results/*.csv]. *)

val quick_opts : run_opts
(** 12 jobs, single seed — for smoke tests. *)

val websearch_run :
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

val run_points_parallel :
  ?domains:int -> point array -> Workload.Fct_stats.t array
(** Run every point (each with a private scenario, scheduler and RNG)
    across a domain pool and return the results {e by point index}, so
    aggregation order — and every figure derived from it — is identical
    for 1 and N domains.  [domains] defaults to the pool's default width
    (see {!Domain_pool.set_default_domains}).  Falls back to a serial map while
    the invariant auditor is on (its tables are global). *)

val prefetch_points :
  ?domains:int ->
  (Scenario.scheme * Scenario.params * float * run_opts) list ->
  unit
(** Compute any not-yet-memoized specs in parallel — one task per
    (spec, seed) — and fill the memo table with the per-spec seed-order
    merges.  The memo is only ever touched from the calling domain;
    workers run memo-free single-seed scenarios.  Subsequent
    {!websearch_point} calls for these specs are lookups. *)

val websearch_point :
  scheme:Scenario.scheme ->
  params:Scenario.params ->
  load:float ->
  opts:run_opts ->
  Workload.Fct_stats.t
(** Merged FCTs over all seeds in [opts].  Points are memoized on their
    full configuration tuple: figures that slice the same sweep
    differently (fig4c and fig5a/b/c) reuse the same runs. *)

val clear_memo : unit -> unit

val incast_point :
  scheme:Scenario.scheme ->
  params:Scenario.params ->
  fanout:int ->
  total_bytes:int ->
  requests:int ->
  seeds:int list ->
  float
(** Mean client goodput (bps) over the seeds. *)
