(** Topology description: an annotated multigraph of hosts and switches.

    The topology is a pure description; [Fabric] instantiates it into live
    links, switches and hosts.  Edges are undirected in the description and
    become a pair of unidirectional links when instantiated.  Parallel
    edges between the same pair of switches model link bundles (the
    testbed's two 40G links per leaf-spine pair) and carry a bundle index.

    The leaf-spine builder reproduces the paper's evaluation topology;
    the three-tier Clos builder adds pods and a core tier (with one link
    per stage it is, for instance, the k = 4 fat-tree). *)

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

val create : unit -> t

val add_switch : t -> Switch.level -> int
val connect :
  t -> int -> int -> rate_bps:float -> delay:Sim_time.span ->
  ?bundle_index:int -> unit -> edge

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

(** {2 Leaf-spine builder} *)

type leaf_spine = {
  topo : t;
  host_ids : int array array;  (** [host_ids.(leaf).(i)] is a node id *)
  leaf_ids : int array;
  spine_ids : int array;
}

val leaf_spine :
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  parallel:int ->
  host_rate_bps:float ->
  fabric_rate_bps:float ->
  host_delay:Sim_time.span ->
  fabric_delay:Sim_time.span ->
  leaf_spine
(** Every leaf connects to every spine with [parallel] parallel links.  With
    [leaves = 2], [spines = 2], [parallel = 2] this is exactly the paper's
    testbed: four disjoint leaf-to-leaf paths. *)

(** {2 Three-tier Clos builder}

    Pods of a full-bipartite leaf/spine stage plus a core tier (level
    [Core_sw]).  Core [k] connects to spine [k mod spines_per_pod] of
    every pod, so inter-pod traffic climbs leaf -> spine -> core -> spine
    -> leaf.  Oversubscription is configured by the core count and
    [core_rate_bps] (heterogeneous rates are first-class: host, fabric
    and core stages each take their own rate/delay). *)

type clos3 = {
  c3_ls : leaf_spine;
      (** Flattened two-tier view: [c3_ls.leaf_ids] and [c3_ls.spine_ids]
          are pod-major, [c3_ls.host_ids] is indexed by global leaf index.
          Code that only understands leaf-spine (edge schemes, sharding,
          traffic) operates on this view unchanged. *)
  c3_pods : int;
  c3_leaves_per_pod : int;
  c3_spines_per_pod : int;
  c3_core_ids : int array;
}

val clos3 :
  pods:int ->
  leaves_per_pod:int ->
  spines_per_pod:int ->
  cores:int ->
  hosts_per_leaf:int ->
  parallel:int ->
  host_rate_bps:float ->
  fabric_rate_bps:float ->
  core_rate_bps:float ->
  host_delay:Sim_time.span ->
  fabric_delay:Sim_time.span ->
  core_delay:Sim_time.span ->
  clos3
(** [cores] must be a positive multiple of [spines_per_pod]; with
    [cores = 2 * spines_per_pod] every spine owns two core uplinks, giving
    hop-by-hop schemes a local alternative when one core degrades. *)
