(** Deterministic execution of a {!Fault_plan} against a live fabric.

    {!arm} resolves the plan's symbolic names once, through a
    {!Fault_plan.names} ({!clos_naming} names every fabric the simulator
    builds), and schedules one scheduler event per plan entry; each fires
    with its edge or switch in hand and drives the injection hooks:
    {!Fabric.fail_edge} / {!Fabric.restore_edge} /
    {!Fabric.set_edge_brownout} / {!Fabric.fail_switch} on the fabric
    side, {!Clove.Vswitch.set_fault_profile} on the virtual edge.

    Every random choice (brownout wire loss, vswitch feedback/probe
    drops) comes from named [Rng.split_named] substreams, so a plan
    replayed with the same seed is byte-deterministic and stable under
    schedule perturbation; fault-free runs draw nothing from these
    streams at all. *)

val clos_naming : Topology.clos -> Fault_plan.names
(** Switches are ["l3"] / ["s2"] (1-based, pod-major across the whole
    fabric), ["l<pod>.<i>"] / ["s<pod>.<i>"] (both 1-based, e.g.
    ["s2.1"] is pod 2's first spine; on one pod ["l1.2"] is ["l2"]) and
    ["core0"].. (0-based).  An edge joins any two switch names, in either
    order (["s2-l2"], ["l2.1-s2.2"], ["s1.2-core1"]), with an optional
    trailing bundle letter selecting the parallel link (["s2-l2b"] is
    bundle index 1; no letter means bundle 0). *)

val tier_of_event : Fault_plan.names -> Topology.t -> Fault_plan.event -> string
(** The tier a plan event disturbs: ["core"] (any edge or switch
    touching a core switch), ["pod"] (intra-pod leaf/spine), ["host"]
    (access links), ["vedge"] (feedback/probe loss profiles), or
    ["unknown"] for unresolvable names.  Drives the chaos scorecard's
    per-tier breakdown. *)

type t

val create :
  sched:Scheduler.t ->
  fabric:Fabric.t ->
  vswitches:Clove.Vswitch.t array ->
  naming:Fault_plan.names ->
  rng:Rng.t ->
  t
(** [rng] should be a dedicated substream (e.g.
    [Rng.split_named experiment_rng "faults"]); the engine derives
    per-edge brownout streams from it by name. *)

val arm : t -> Fault_plan.t -> (unit, string) result
(** Resolve every name in the plan once (failing, with nothing
    scheduled, with a message naming the first unknown edge/switch),
    then schedule all events at their absolute times; a brownout or loss
    profile with an [until] ends there.  Call before running the
    scheduler. *)

val stop : t -> unit
(** Disarm: events that have not fired yet become no-ops, and any
    running flap loop restores its edge at the next transition. *)

(* oracle of test_faults' flap executes case — lint: allow dead-export *)
val events_fired : t -> int

(* oracle of test_faults' flap executes case — lint: allow dead-export *)
val flap_transitions : t -> int
(** Individual down/up edges executed by flap loops (not plan events). *)
