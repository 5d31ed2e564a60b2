(** CONGA (Alizadeh et al., SIGCOMM '14) — the in-network, utilization-aware
    baseline the paper compares against in its NS2 simulations.

    Implemented for 2-tier leaf-spine fabrics (CONGA's own design limit)
    as an egress picker on every leaf ({!Netsim.Switch.set_picker}):

    - every leaf tracks, per destination leaf and per uplink (LBTag), the
      path congestion metric learned from feedback ([CongToLeaf]) and the
      metric measured on arriving packets ([CongFromLeaf]);
    - packets crossing the fabric carry (LBTag, CE).  CE is the packet's
      INT stamp: the source leaf enables INT, every switch maxes its
      egress-link DRE utilization into it (as for Clove-INT), and the
      destination leaf stores it;
    - reverse traffic piggybacks one (FB_LBTag, FB_metric) pair per packet,
      round-robining over LBTags;
    - leaves route each new flowlet (500 us gap by default) on the uplink
      minimizing max(local DRE, CongToLeaf);
    - metrics age out so stale congestion does not pin decisions.

    Spines forward with the fabric's index-preserving parallel-link rule,
    so an LBTag identifies a full leaf-to-leaf path. *)

type t

val install : ?flowlet_gap:Sim_time.span -> Fabric.t -> t
(** Installs pickers on the leaves; spines and cores keep the default
    picker.  Default flowlet gap 500 us; metrics age out after a fixed
    10 ms. *)

(* oracle of test_fabric_lb's conga metadata case — lint: allow dead-export *)
val flowlets_started : t -> int
(* oracle of test_fabric_lb's conga metadata case — lint: allow dead-export *)
val decisions : t -> int
(** Cross-fabric path choices made (first decisions plus failure
    re-picks). *)

(* oracle of test_fabric_lb's conga metadata case — lint: allow dead-export *)
val cong_to_leaf : t -> leaf:int -> dst_leaf:int -> float array
(** Current (aged) CongToLeaf metrics of [leaf] toward [dst_leaf], one per
    uplink — for inspection and tests. *)
