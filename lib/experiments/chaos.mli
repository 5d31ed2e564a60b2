(** The ext-chaos experiment family: execute a deterministic fault plan
    against each load-balancing scheme on the paper's testbed scenario and
    distill a per-scheme {e resilience scorecard}:

    - avg mice FCT of flows arriving before, during, and after the fault
      window (by arrival, like the paper's timeline methodology; mice so
      a window's average is not hostage to how many rare elephants it
      happened to sample);
    - post-recovery p99;
    - goodput the fault window failed to deliver (bytes completed during
      the window vs the fault-free baseline);
    - time-to-recover: earliest post-settle instant from which the whole
      remaining run averages within 10% of the fault-free baseline.

    Each faulted run is paired with a fault-free baseline of the same
    seeded scenario — byte-identical up to the first fault event — so
    "recovered" means the tail of the run is within 10% of what the
    scheme would have delivered with no fault at all.  That controls for
    both workload-sampling noise and the secular backlog drift that makes
    absolute pre-vs-post comparisons lie.  The disruption "settles" at
    the restoration when every fault ends, or at the last fault event of
    a permanent plan — so for a permanent failure, recovery means
    adapting to the degraded fabric (which congestion-aware schemes can
    do and ECMP cannot).

    Schemes run as fully private scenarios fanned across a domain pool and
    merged by index, so scorecards — and the FCT digests derived from them
    — are identical at any domain count.  One faulted run, {!simulate},
    is also the whole of the ext-failure timeline experiment. *)

type opts = {
  plan : Faults.Fault_plan.t;  (** [[]] is a fault-free run *)
  schemes : Scenario.scheme list;
  load : float;
  jobs_per_conn : int;
  params : Scenario.params;
      (** the scenario every run builds, seed included; its
          [failure_recovery = false] is the deliberate black-hole
          negative control *)
  mode : Run_mode.t;  (** every run's mode: widths, knobs, auditing *)
}

val default_opts : opts
(** Clove-ECN vs ECMP under
    ["flap s2-l2b period=20ms duty=0.5 until=120ms @60ms"] at load 0.25,
    seed 1, 750 jobs/conn, 20 ms probe interval, recovery on. *)

val link_down_spec : string
(** [clove-sim chaos]'s default plan: an S2-L2 link is down 60-120 ms. *)

val vedge_spec : string
(** The virtual-edge verbs in one plan: every vswitch loses half its
    congestion feedback 30-45 ms and 99% of its probes 30-65 ms, while
    spine 2 is down 40-55 ms, so the feedback-loss profile ends while
    the probe-loss one still holds. *)

val preset_names : string list
(** Pod-level gray-failure presets for 3-tier topologies:
    ["core-brownout"] (the flagship: core0 grays out to 10% capacity
    with 5% wire loss on every pod uplink for the rest of the run, no
    routing reconvergence — recovery means adapting to the degraded
    fabric), ["interpod-flap"] (pod 1's first core uplink flaps), and
    ["dual-link-loss"] (correlated loss of two core uplinks of pod 1). *)

val preset_spec : Scenario.params -> string -> (string, string) result
(** Expand a preset name into a fault-plan spec against the actual pod
    count; errors for unknown names or 2-tier [params]. *)

(** One scheme's scorecard line (FCTs in seconds, mice only). *)
type score = {
  sc_pre_avg : float;
  sc_fault_avg : float;
  sc_post_avg : float;
  sc_post_base_avg : float;
      (** the same post-restoration window in the fault-free baseline *)
  sc_post_p99 : float;
  sc_goodput_lost : float;
  sc_ttr : float option;  (** time to recover; [None]: never recovered *)
}

type row = {
  r_scheme : Scenario.scheme;
  r_score : score;
  r_fct : Workload.Fct_stats.t;  (** the faulted run's full FCT record *)
  r_base : Workload.Fct_stats.t;  (** the paired fault-free baseline's *)
  r_ledger : Ledger.t;  (** the auditor's ledger over both runs *)
}

val simulate :
  mode:Run_mode.t ->
  Scenario.params ->
  load:float ->
  jobs_per_conn:int ->
  Scenario.scheme ->
  Faults.Fault_plan.t ->
  Workload.Fct_stats.t * Ledger.t
(** One seeded run of [params] at [load] for [jobs_per_conn] jobs per
    connection, client [i] paired with server [i], with the given plan
    armed on the scenario's control scheduler ([[]] = the fault-free
    baseline).  Runs at the
    scenario's shard width through {!Scenario.run_websearch}; raises
    [Invalid_argument] when the plan does not fit the topology; with its
    {!Scenario.ledger}.  The ext-failure timeline is two such runs. *)

val run : opts -> row array
(** All schemes, {!Sweep.fan_width} wide — each a faulted run plus its
    fault-free baseline — results by scheme index. *)

val pp_rows : opts -> Format.formatter -> row array -> unit
(** What [clove-sim chaos] prints: the resilience scorecard, its per-tier
    breakdown (each tier's own disruption window, per
    {!Faults.Fault_engine.tier_of_event}) and a
    [digest <scheme> <md5 of canonical_dump>] line per scheme. *)

val pp_ledgers : Format.formatter -> row array -> unit
(** What [clove-sim chaos --audit] adds: each scheme's {!Ledger.pp}. *)

val report : opts -> Figures.report
(** {!run}'s resilience scorecard (the ext-chaos extension). *)
