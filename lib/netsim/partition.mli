(** Fabric partitioning and boundary-event exchange for conservative PDES.

    A partition assigns every topology node to a shard and identifies the
    cross links — links whose two endpoints live on different shards.  The
    lookahead window is the minimum propagation delay over those links
    (or an explicit [?window], validated against them): events on one
    shard cannot affect another sooner than the window, which is what
    makes per-window parallel execution in {!Shard} causally safe.

    Each cross link direction owns a pre-sized exchange buffer.  During a
    window only the source shard appends to its buffers; at the barrier,
    with every shard quiescent, {!exchange} drains all buffers in a fixed
    order (edge-id order, a-to-b before b-to-a, FIFO within each buffer),
    re-injecting each delivery on the destination shard via
    {!Link.inject}.  The fixed drain order makes injection deterministic
    at any shard count. *)

type t

val plan :
  topo:Topology.t ->
  nshards:int ->
  shard_of_node:(int -> int) ->
  ?window:Sim_time.span ->
  unit ->
  t
(** Compute the cut for [shard_of_node] (must map every node id into
    [0, nshards)).  Raises [Invalid_argument] with a descriptive message
    if an explicit [window] is non-positive or exceeds the latency of any
    cross-shard link — such a cut cannot support the requested lookahead —
    or, with the window inferred, if any cross-shard link has zero
    latency.  With no cross links (e.g. [nshards = 1]) the window
    defaults to 1ms; it only bounds barrier spacing. *)

val attach : t -> fabric:Fabric.t -> scheds:Scheduler.t array -> unit
(** Install boundary mode ({!Link.set_boundary}) on every cross link of
    [fabric], wiring each to its exchange buffer and its destination
    shard's scheduler.  [scheds] must have exactly [nshards] entries,
    indexed by shard id.  Call once, after {!Fabric.create} and before
    the run starts. *)

val exchange : t -> int
(** Drain every exchange buffer, re-injecting buffered deliveries on
    their destination shards; returns the number of boundary events
    injected.  Must only be called at a window barrier, when every shard
    scheduler is quiescent.  Allocation-free in steady state. *)

val window_ns : t -> int
(** The lookahead window, in integer nanoseconds. *)

val shard_of_node : t -> int -> int
