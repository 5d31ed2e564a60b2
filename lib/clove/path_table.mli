(** Per-destination path weight table (the "path weight table" of Fig. 2).

    Holds the source ports that map to distinct paths toward one remote
    hypervisor, the WRR weights adapted from ECN feedback (Clove-ECN), the
    last reported utilization per path (Clove-INT), and the recent-
    congestion timestamps used for the "all paths congested" escalation.

    Path state survives topology-driven rediscovery: on [install], state is
    carried over by path signature even when the port that maps to a path
    has changed (the optimization described at the end of Section 3.1). *)

type t

val create : sched:Scheduler.t -> cfg:Clove_config.t -> t

val install : t -> (int * Clove_path.t) list -> unit
(** Replace the port set with freshly discovered (port, path) pairs,
    preserving weights/utilization of paths already known.  An install
    also counts as a liveness verification for every path in the new set
    (probes completed the round trip to discover them).  An empty list
    clears the table entirely — used by traceroute when probes stop
    coming back at all (destination unreachable / total black hole). *)

val ready : t -> bool
(** At least one path installed. *)

val ports : t -> int array
val paths : t -> Clove_path.t array
val port_count : t -> int

val pick_wrr : t -> int
(** Next source port by weighted round-robin (Clove-ECN). *)

val pick_random : t -> Rng.t -> int
(** Uniform port choice (Edge-Flowlet when restricted to known ports). *)

val pick_least_utilized : t -> int
(** Port with the smallest reported utilization (Clove-INT); ties break to
    the lower index.  When failure recovery is enabled, samples older than
    the staleness window are discounted (see {!pick_min_latency}). *)

val note_congested : t -> port:int -> unit
(** ECN feedback for [port]: cut its weight by the configured fraction and
    spread the remainder over paths not currently congested; ports not in
    the table are ignored (stale feedback after rediscovery). *)

val note_util : t -> port:int -> util:float -> unit

val note_latency : t -> port:int -> delay:Sim_time.span -> unit
(** One-way delay feedback (Clove-Latency, Section 7). *)

val pick_min_latency : t -> int
(** Port with the smallest staleness-aware one-way delay.  A fresh sample
    (within [path_staleness]) is taken at face value; an unmeasured or
    stale sample counts as zero {e only} while the path set was recently
    verified by traceroute — so fresh paths still get probed by traffic —
    and as infinity otherwise.  Suspect paths always read as infinity,
    fixing the trap where a black-holed path's "no measurement = zero
    delay" made it the permanent minimum.  Ties break to the lower index,
    deterministically.  With [failure_recovery = false] this is the legacy
    raw minimum. *)

val latency_spread : t -> Sim_time.span
(** Max minus min reported delay across paths — drives the adaptive
    flowlet gap. *)

val weights : t -> float array
val utilization : t -> float array
val latencies : t -> Sim_time.span array

val all_congested : t -> bool
(** Every path saw congestion feedback within the configured window. *)

val note_tx : t -> port:int -> unit
(** Record that a tenant packet was just sent via [port] — arms the
    black-hole detector for that path. *)

val note_alive : t -> port:int -> unit
(** Record external liveness evidence for [port] (e.g. an ACK arriving
    for a flow currently pinned to it).  Feedback via [note_congested] /
    [note_util] / [note_latency] counts automatically. *)

val suspects : t -> bool array
(** Per-path suspect flags: traffic was sent after the last liveness
    evidence and no echo arrived within [path_suspect_timeout].  All
    [false] when failure recovery is disabled. *)

val maintain : t -> unit
(** Periodic recovery pass (driven by the vswitch maintenance timer):
    decays suspect-path weights geometrically toward zero (black-hole
    eviction), drifts quiet below-uniform paths back toward uniform, and
    falls back to uniform spraying if {e every} path is suspect.  No-op
    when failure recovery is disabled. *)
