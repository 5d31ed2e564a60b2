(** Per-destination path weight table (the "path weight table" of Fig. 2).

    Holds the source ports that map to distinct paths toward one remote
    hypervisor, the WRR weights adapted from ECN feedback (Clove-ECN), the
    last cost sample relayed per path (Clove-INT's path utilization or
    Clove-Latency's one-way delay), and the recent-congestion timestamps
    used for the "all paths congested" escalation.

    Path state survives topology-driven rediscovery: on [install], state is
    carried over by path signature even when the port that maps to a path
    has changed (the optimization described at the end of Section 3.1). *)

type t

val create : sched:Scheduler.t -> cfg:Clove_config.t -> t

(* test_analysis' audit-units weight sum drives it directly — lint: allow dead-export *)
val check_weight_sum : t -> label:string -> float array -> unit
(** Records a [weight-normalization] violation on the table's scheduler
    unless non-empty [weights] sum to 1 (±1e-6); an audited table runs
    it after every install and weight update. *)

val install : t -> (int * Clove_path.t) list -> unit
(** Replace the port set with freshly discovered (port, path) pairs,
    preserving the weights and samples of paths already known.  An install
    also counts as a liveness verification for every path in the new set
    (probes completed the round trip to discover them).  An empty list
    clears the table entirely — used by traceroute when probes stop
    coming back at all (destination unreachable / total black hole). *)

val ready : t -> bool
(** At least one path installed. *)

val ports : t -> int array
val paths : t -> Clove_path.t array
(* oracle of the traceroute cases in test_clove, test_extensions — lint: allow dead-export *)
val port_count : t -> int

val pick_wrr : t -> int
(** Next source port by weighted round-robin (Clove-ECN). *)

val note_congested : t -> port:int -> unit
(** ECN feedback for [port]: cut its weight by the configured fraction and
    spread the remainder over paths not currently congested; ports not in
    the table are ignored (stale feedback after rediscovery). *)

val note_sample : t -> port:int -> value:float -> unit
(** Cost sample for [port] (Clove-INT's path-max utilization, or
    Clove-Latency's one-way delay in seconds); ports not in the table are
    ignored. *)

val pick_min_sample : t -> int
(** Port with the smallest staleness-aware sample (Clove-INT and
    Clove-Latency).  A fresh sample (within the staleness window, 50x the
    RTT estimate) is taken at face value; an unmeasured or stale sample
    counts as zero {e only} while the path set was recently verified by
    traceroute — so fresh paths still get probed by traffic — and as
    infinity otherwise.  Suspect paths always read as infinity, fixing the
    trap where a black-holed path's "no measurement = zero" made it the
    permanent minimum.  Ties break to the lower index, deterministically.
    With [failure_recovery = false] this is the raw minimum. *)

val latency_spread : t -> Sim_time.span
(** Max minus min sample, read as seconds: Clove-Latency's inter-path
    delay spread, which drives the adaptive flowlet gap. *)

val weights : t -> float array
(* oracle of test_clove's remap and test_extensions' latency cases — lint: allow dead-export *)
val samples : t -> float array

val all_congested : t -> bool
(** Every path saw congestion feedback within the congested window (4x
    the RTT estimate). *)

val note_tx : t -> port:int -> unit
(** Record that a tenant packet was just sent via [port] — arms the
    black-hole detector for that path. *)

val note_alive : t -> port:int -> unit
(** Record external liveness evidence for [port] (e.g. an ACK arriving
    for a flow currently pinned to it).  Feedback via [note_congested] /
    [note_sample] counts automatically. *)

(* oracle of test_faults' black-hole eviction and path-aging cases — lint: allow dead-export *)
val suspects : t -> bool array
(** Per-path suspect flags: traffic was sent after the last liveness
    evidence and no echo arrived within the suspect timeout (20x the RTT
    estimate).  All [false] when failure recovery is disabled. *)

val maintain : t -> unit
(** Periodic recovery pass (driven by the vswitch maintenance timer):
    decays suspect-path weights geometrically toward zero (black-hole
    eviction), drifts quiet below-uniform paths back toward uniform, and
    falls back to uniform spraying if {e every} path is suspect.  No-op
    when failure recovery is disabled. *)
