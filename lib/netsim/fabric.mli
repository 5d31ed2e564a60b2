(** Instantiated network: live links, switches and hosts wired from a
    {!Topology} description, with ECMP routes programmed.

    The fabric owns the mapping between topology edges and the pair of
    unidirectional links realizing them, supports link failure/restoration
    with route recomputation (modelling the underlay routing protocol
    reconverging), and exposes aggregate queue statistics. *)

type t

(** Every link queue has {!Pkt_queue.create}'s default capacity, 256
    packets. *)
type config = {
  ecn_threshold_pkts : int;  (** <= 0 disables marking *)
  seed : int;  (** seeds the per-switch ECMP hash functions *)
}

val default_config : config

val create :
  ?sched_of_node:(int -> Scheduler.t) ->
  sched:Scheduler.t ->
  config:config ->
  Topology.t ->
  t
(** [sched_of_node] (PDES builds) assigns each node — and each link,
    keyed by its source node — to its shard's scheduler; [sched] remains
    the control scheduler (fault plans, reconvergence).  Omitted, everything runs on [sched]: the serial
    build. *)

val topology : t -> Topology.t

val hosts : t -> Host.t array
(** In creation order; [Host.addr] equals the topology node id. *)

val host_by_addr : t -> Addr.t -> Host.t
val switches : t -> Switch.t array

val links_of_edge : t -> Topology.edge -> Link.t * Link.t
(** (a-to-b, b-to-a). *)

val all_links : t -> Link.t list

val program_routes : t -> unit
(** Recompute and install ECMP routes for every host over live edges. *)

val fail_edge : t -> Topology.edge -> unit
(** Take both directions down, then reconverge routing. *)

val restore_edge : t -> Topology.edge -> unit

val set_edge_brownout :
  t -> Topology.edge -> capacity_frac:float -> loss_prob:float -> rng:Rng.t -> unit
(** Degrade both directions of [edge] (see {!Link.set_brownout}); each
    direction gets its own [Rng.split_named] substream keyed on the link
    label, so loss patterns are stable across unrelated plan changes.
    Routing is untouched: a brownout is invisible to the underlay. *)

val clear_edge_brownout : t -> Topology.edge -> unit

val fail_switch : t -> int -> Topology.edge list
(** Fail every live edge incident to the switch node, reconverging once;
    returns the edges actually taken down so the caller can restore
    exactly those (edges already failed by other faults are skipped). *)

val restore_edges : t -> Topology.edge list -> unit
(** Restore the given edges, reconverging once. *)

val reconvergences : t -> int
(** Number of fault-driven route recomputations so far. *)

val set_reconverge_hook : t -> (unit -> unit) -> unit
(** Called after every fault-driven reconvergence — lets the virtual edge
    (or a test) observe underlay routing churn. *)

val total_drops : t -> int
(** Sum of queue drops across all links. *)

val total_marks : t -> int
