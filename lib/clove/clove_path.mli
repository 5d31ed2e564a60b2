(** Network paths as discovered by traceroute, and the greedy disjoint-path
    selection heuristic (Section 3.1: "greedily add the path that shares the
    least number of links with paths already picked"). *)

type t = Packet.hop list
(** Switch interfaces traversed, in TTL order. *)

val signature : t -> int
(** A stable identity for the path, independent of which source port
    currently maps to it — used to carry path state (weights, utilization)
    across topology-change rediscovery. *)

val pp : Format.formatter -> t -> unit

val select_disjoint : k:int -> (int * t) list -> (int * t) list
(** [select_disjoint ~k candidates] picks up to [k] (port, path) pairs with
    distinct paths, greedily minimizing link sharing with the already-picked
    set.  Duplicate paths are collapsed (first port wins).  Ties break
    toward shorter paths, then lower port numbers, for determinism. *)
