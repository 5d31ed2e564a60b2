(** Topology description: an annotated multigraph of hosts and switches.

    The topology is a pure description; [Fabric] instantiates it into live
    links, switches and hosts.  Edges are undirected in the description and
    become a pair of unidirectional links when instantiated.  Parallel
    edges between the same pair of switches model link bundles (the
    testbed's two 40G links per leaf-spine pair) and carry a bundle index.

    The one builder, {!clos}, makes pods of leaves and spines under a
    core tier.  Its one-pod, no-core case is the paper's evaluation
    topology; with one link per stage it is, for instance, the k = 4
    fat-tree. *)

type node = Host_node of int | Switch_node of Switch.level * int
(** Node identity: payload is a dense node id shared across both kinds. *)

type edge = {
  edge_id : int;
  a : int;  (** node id *)
  b : int;  (** node id *)
  rate_bps : float;
  delay : Sim_time.span;
  bundle_index : int;  (** index within parallel edges between a and b *)
  mutable failed : bool;
}

type t

val node : t -> int -> node
val node_count : t -> int
val nodes : t -> node array
val edges : t -> edge list
val edges_of : t -> int -> edge list
(** Edges (including failed ones) incident to a node. *)

val live_neighbors : t -> int -> int list
(** Distinct neighbor node ids over non-failed edges. *)

val fail_edge : t -> edge -> unit
val restore_edge : t -> edge -> unit
val is_host : t -> int -> bool

val find_edge : t -> a:int -> b:int -> bundle_index:int -> edge option

(** {2 Clos builder}

    Pods of a full-bipartite leaf/spine stage with [parallel] links per
    leaf-spine pair, plus a core tier (level [Core_sw]).  Core [k]
    connects to spine [k mod spines_per_pod] of every pod, so inter-pod
    traffic climbs leaf -> spine -> core -> spine -> leaf.
    Oversubscription is configured by the core count and
    [core_rate_bps].

    One pod with no cores is the paper's two-tier leaf-spine testbed:
    with 2 leaves, 2 spines and [parallel = 2] it has exactly four
    disjoint leaf-to-leaf paths. *)

type clos = {
  topo : t;
  host_ids : int array array;
      (** [host_ids.(leaf).(i)] is a node id, [leaf] a global index *)
  leaf_ids : int array;  (** pod-major *)
  spine_ids : int array;  (** pod-major *)
  core_ids : int array;
  pods : int;
  leaves_per_pod : int;
  spines_per_pod : int;
}

val clos :
  pods:int ->
  leaves_per_pod:int ->
  spines_per_pod:int ->
  cores:int ->
  hosts_per_leaf:int ->
  parallel:int ->
  host_rate_bps:float ->
  fabric_rate_bps:float ->
  core_rate_bps:float ->
  delay:Sim_time.span ->
  clos
(** Nodes are numbered every leaf, then every spine (both pod-major),
    then the cores, then the hosts leaf by leaf; every link has [delay].
    [cores] must be a multiple of [spines_per_pod], and may be 0 only
    when [pods = 1]; with [cores = 2 * spines_per_pod] every spine owns
    two core uplinks, giving hop-by-hop schemes a local alternative when
    one core degrades.  Raises [Invalid_argument] otherwise. *)
