(** CAFT-style congestion-aware fault-tolerant load balancing (after
    *CAFT: Congestion-Aware Fault-Tolerant Load Balancing for Three-Tier
    Clos Data Centers*, PAPERS.md) — the 3-tier in-network baseline.

    Hop-by-hop flowlet switching on every tier: each switch scores its
    candidate next-hop ports by [(eps + congestion) / weight], where
    congestion is max(egress DRE utilization, queue occupancy) and
    weight is the effective live downstream capacity toward the packet's
    destination leaf (min of the port rate and the capacity of the
    subtree behind the peer).  Weights are recomputed on every fabric
    reconvergence — failure-aware pruning and re-weighting: a dead or
    browned-out core drains weight from every spine above it, so
    flowlets re-spread proportionally to surviving capacity instead of
    overloading the remaining shortest paths.

    Gray failures — a core that silently loses packets without taking
    its links down — are caught by a switch-local loss hold-down: the
    egress link's cumulative drop counters advancing between two looks
    at a port scores that port as fully congested for a hold-down
    period, so flowlets stop oscillating back onto a lossy core the
    moment its queue drains (the trap a purely queue/DRE-based cost
    falls into, because a deserted gray link looks idle).

    Fully deterministic (no RNG): cost ties break to the lowest port
    index, and every per-packet structure is owned by its switch's
    scheduler, so PDES runs are byte-identical at any shard width. *)

type t

val install : ?flowlet_gap:Sim_time.span -> Fabric.t -> t
(** Installs pickers on every switch, computes initial weights, and
    registers the re-weighting reconvergence hook on the fabric.
    Default flowlet gap 500 us.  Fixed: [eps = 0.05] (the congestion
    floor that keeps an idle narrow path from always beating a busy wide
    one) and a 50 ms gray-port loss hold-down. *)

val flowlets_started : t -> int

val decisions : t -> int
(** Flowlet path choices made (first decisions plus failure re-picks). *)

val reweights : t -> int
(** Weight recomputations executed (1 at install + 1 per reconvergence). *)

(* oracle of test_clos3's caft capacity case — lint: allow dead-export *)
val capacity_to : t -> node:int -> dst_leaf:int -> float
(** Current effective downstream capacity (bps) from a switch node
    toward a destination leaf — for inspection and tests; 0 when
    unreachable. *)
