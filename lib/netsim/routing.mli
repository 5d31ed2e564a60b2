(** Shortest-path ECMP route computation.

    For each destination host, a BFS over the live topology (never relaying
    through other hosts) yields, for every node, the set of neighbors lying
    on some shortest path — the equal-cost next hops that standard L3 ECMP
    would install.  [Fabric] translates neighbor sets into candidate egress
    ports (all parallel links to a next-hop are candidates). *)

val next_hops : mode:Run_mode.t -> Topology.t -> dst:int -> (int, int list) Hashtbl.t
(** Maps each node id that can reach [dst] to its shortest-path next-hop
    neighbor node ids (each listed once even with parallel links); its
    tables are {!Det.create}d under [mode]. *)

val distances : mode:Run_mode.t -> Topology.t -> dst:int -> (int, int) Hashtbl.t
(** BFS hop distances toward [dst]; absent = unreachable. *)
