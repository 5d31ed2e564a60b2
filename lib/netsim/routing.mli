(** Shortest-path ECMP route computation.

    For each destination host, a BFS over the live topology (never relaying
    through other hosts) yields, for every node, the set of neighbors lying
    on some shortest path — the equal-cost next hops that standard L3 ECMP
    would install.  [Fabric] translates neighbor sets into candidate egress
    ports (all parallel links to a next-hop are candidates). *)

val next_hops : Topology.t -> dst:int -> int list Int_table.t
(** Maps each node id that can reach [dst] to its shortest-path next-hop
    neighbor node ids (each listed once even with parallel links); a
    node with none is absent (the table's dummy is [[]]). *)

val distances : Topology.t -> dst:int -> int Int_table.t
(** BFS hop distances toward [dst]; absent = unreachable (the table's
    dummy is [-1]). *)
