(** Experiment scenario: the paper's testbed, in simulation.

    Builds the fabric with {!Topology.clos} — by default one pod of 2
    leaves and 2 spines with two parallel fabric links per leaf-spine
    pair (four disjoint leaf-to-leaf paths), the paper's testbed — places
    clients on the first half of the leaves and servers on the rest,
    instantiates per-host transport stacks and hypervisor virtual
    switches for the requested load-balancing scheme, optionally fails
    one spine-leaf link (the paper's asymmetry), and hands out persistent
    connections for the workload drivers. *)

type scheme =
  | S_ecmp
  | S_edge_flowlet
  | S_clove_ecn
  | S_clove_int
  | S_clove_latency  (** Section 7's latency-feedback variant *)
  | S_presto
  | S_mptcp  (** MPTCP transport over the ECMP dataplane *)
  | S_conga  (** plain transport, CONGA in the fabric *)
  | S_letflow  (** plain transport, in-ToR flowlet switching (NSDI'17) *)
  | S_caft
      (** plain transport, CAFT-style hop-by-hop congestion-aware
          fault-tolerant balancing on every tier (3-tier baseline) *)

val scheme_name : scheme -> string
val scheme_of_string : string -> scheme option

type params = {
  leaves : int;
      (** leaves per pod; the first half of all leaves hold clients, the
          rest servers; every pod has 2 spines *)
  pods : int;
      (** 1 (default) builds the paper's 2-tier leaf-spine, with no core
          tier; [>= 2] builds a 3-tier Clos of [pods] pods plus a core
          tier.  Clients land on the first half of the pods, so the
          workload crosses the core. *)
  cores : int;
      (** core-switch count for [pods >= 2], a multiple of the 2 spines
          per pod; 0 (default) means 4 — two core uplinks per spine *)
  hosts_per_leaf : int;  (** hosts per leaf, each with a 10G NIC *)
  fabric_rate_bps : float;
      (** per fabric link; 4 such links per leaf — keep
          [4 * fabric_rate = hosts_per_leaf * 10G] for a
          non-oversubscribed fabric like the paper's *)
  core_rate_bps : float;
      (** per spine-core link for [pods >= 2]; 0 (default) means
          [fabric_rate_bps].  Lower it (or cut [cores]) to oversubscribe
          the core tier. *)
  asymmetric : bool;  (** fail one of the two S2-L2 links (-25% bisection) *)
  ecn_threshold_pkts : int;
  flowlet_gap : Sim_time.span option;  (** override Clove's flowlet gap *)
  k_paths_override : int option;  (** cap the number of discovered paths *)
  weight_cut_override : float option;  (** Clove-ECN weight reduction *)
  rtt_estimate : Sim_time.span;
      (** the RTT estimate Clove's config and timers derive from; 40 us
          (default) on the 2-tier testbed *)
  conns_per_client : int;
  size_scale : float;  (** flow-size scale-down factor for fast runs *)
  guest_dctcp : bool;  (** run DCTCP guest stacks and expose fabric marks *)
  rewrite_mode : bool;  (** non-overlay 5-tuple rewriting (Section 7) *)
  clove_reorder : bool;  (** flowlet sequence numbers + receiver reordering *)
  adaptive_gap : bool;  (** adaptive flowlet gap (with Clove-Latency) *)
  probe_interval : Sim_time.span option;  (** traceroute refresh override *)
  failure_recovery : bool;
      (** enable the Clove failure-recovery hardening (sample staleness,
          black-hole suspect decay, traceroute eviction, weight recovery);
          off by default so paper-claim scenarios match the original
          algorithm — chaos experiments turn it on *)
  data_mining : bool;  (** use the data-mining flow-size CDF instead *)
  seed : int;
}

val default_params : params
(** The paper's testbed: 2 leaves, 2 spines, 8 hosts/leaf at 10G, 20G
    fabric links, ECN threshold 20, symmetric, 1 connection per client,
    4 MPTCP subflows, sizes scaled by 0.25. *)

type t

val build : ?mode:Run_mode.t -> ?shards:int -> scheme:scheme -> params -> t
(** Every scheduler runs under [mode] ({!Run_mode.default}).  [shards]
    (default: the mode's) is the width: 1 = serial, on one scheduler;
    [n >= 2] = conservative time-window PDES over [n] domains, one shard
    per leaf (spines round-robin).  Raises [Invalid_argument] when
    [shards < 1].  A width beyond the leaf count clamps (one shard per
    leaf is the finest partition) and MPTCP always degrades to serial
    (one scheduler spans both of its endpoints), so digests stay
    comparable at any requested width; {!shards} reports the effective
    width. *)

val sched : t -> Scheduler.t
(** The control scheduler: the only scheduler in serial builds; under
    PDES the global scheduler fault plans arm on, advanced at window
    barriers while the shards are quiescent. *)

val shards : t -> int
val shard : t -> Shard.t option
(** The PDES coordinator when [shards >= 2] (barrier/stall counters for
    benchmarks). *)

val fabric : t -> Fabric.t

val topology : t -> Topology.clos
(** The topology description the fabric was instantiated from. *)

val fault_naming : t -> Faults.Fault_plan.names
(** {!Faults.Fault_engine.clos_naming} of this scenario's topology. *)

val fault_names : params -> Faults.Fault_plan.names
(** {!Faults.Fault_engine.clos_naming} of the topology [params]
    describes, for parse-time name validation, without building a
    scenario (the topology description is
    cheap; no fabric is instantiated). *)

val build_topology : params -> Topology.clos
(** The pure topology description [params] denotes — for name
    resolution and tier classification without instantiating a fabric.
    One pod has no core tier, whatever [cores] says. *)

val clients : t -> Host.t array
val servers : t -> Host.t array
val params : t -> params
val rng : t -> Rng.t
val vswitch : t -> Host.t -> Clove.Vswitch.t
val stack : t -> Host.t -> Transport.Stack.t
val conga : t -> Fabric_lb.Conga.t option
(** The fabric-side CONGA state, when the scheme is [S_conga]. *)

val caft : t -> Fabric_lb.Caft.t option
(** The fabric-side CAFT state, when the scheme is [S_caft]. *)

val connect : t -> src:Host.t -> dst:Host.t -> Workload.Websearch.submit
(** A persistent connection carrying data from [src] to [dst], using the
    scenario's transport (MPTCP connections under [S_mptcp], plain TCP
    otherwise).  Path discovery toward both endpoints is pre-warmed. *)

val size_dist : t -> Stats.Cdf.t
(** The web-search distribution scaled by [size_scale]. *)

val scaled_cutoff : params -> int -> int
(** A flow-size cutoff (e.g. {!Workload.Fct_stats.mice_cutoff}) scaled by
    [size_scale], as the workload's flow sizes are. *)

val bisection_bps : t -> float
(** Full (pre-failure) bisection bandwidth, the paper's load reference. *)

val warmup : t -> Sim_time.span
(** Recommended workload start time: enough for path discovery. *)

val run_websearch :
  t -> rng:Rng.t -> conns:Workload.Websearch.submit array -> Workload.Websearch.config ->
  Workload.Fct_stats.t
(** Run the websearch workload to completion under this scenario's
    execution mode: the serial drive loop at [shards = 1]; armed
    per-shard and driven through the window-barrier coordinator at
    [shards >= 2], where each connection schedules, records and counts
    down entirely on its source host's shard.  Record order is
    canonicalized at every width.  [conns] must be every connection
    created on [t], in creation order.  FCT digests are byte-identical
    at every width.  An audited run goes on one hop delay past the last
    completion, an instant every width reaches, so {!ledger} is the
    same at every width too. *)

val ledger : t -> Ledger.t
(** The auditor's ledger now, over the fabric and the violations of the
    control scheduler and then of each shard's. *)

val total_drops : t -> int
val total_marks : t -> int
val quiesce : t -> unit
(** Stop daemons and retransmission timers after a run; under PDES also
    shuts the shard coordinator's domain pool down. *)
