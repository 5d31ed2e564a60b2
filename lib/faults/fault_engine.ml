let clos_naming (c : Topology.clos) =
  (* "<i>" counts across the whole pod-major id array, "<p>.<i>" within
     pod p; both 1-based *)
  let pick ids per_pod rest =
    let nth i =
      if i >= 1 && i <= Array.length ids then Some ids.(i - 1) else None
    in
    match List.map int_of_string_opt (String.split_on_char '.' rest) with
    | [ Some i ] -> nth i
    | [ Some p; Some i ]
      when p >= 1 && p <= c.Topology.pods && i >= 1 && i <= per_pod ->
      nth (((p - 1) * per_pod) + i)
    | _ -> None
  in
  let resolve_switch name =
    let n = String.length name in
    if n > 4 && String.sub name 0 4 = "core" then
      match int_of_string_opt (String.sub name 4 (n - 4)) with
      | Some k when k >= 0 && k < Array.length c.Topology.core_ids ->
        Some c.Topology.core_ids.(k)
      | _ -> None
    else if n < 2 then None
    else
      let rest = String.sub name 1 (n - 1) in
      match name.[0] with
      | 'l' -> pick c.Topology.leaf_ids c.Topology.leaves_per_pod rest
      | 's' -> pick c.Topology.spine_ids c.Topology.spines_per_pod rest
      | _ -> None
  in
  (* an edge is "<switch>-<switch>" in either order; a trailing letter on
     the second component selects the parallel link of the bundle
     ("s2-l2b" = bundle index 1) *)
  let resolve_edge name =
    match String.split_on_char '-' name with
    | [ a; b ] -> (
      let b, bundle =
        let n = String.length b in
        if
          n >= 2
          && (match b.[n - 1] with 'a' .. 'z' -> true | _ -> false)
          && (match b.[n - 2] with '0' .. '9' -> true | _ -> false)
        then (String.sub b 0 (n - 1), Char.code b.[n - 1] - Char.code 'a')
        else (b, 0)
      in
      match (resolve_switch a, resolve_switch b) with
      | Some na, Some nb ->
        Topology.find_edge c.Topology.topo ~a:na ~b:nb ~bundle_index:bundle
      | _ -> None)
    | _ -> None
  in
  { Fault_plan.resolve_edge; resolve_switch }

(* which tier a plan event disturbs, for per-tier scorecard breakdowns:
   any edge or switch touching a core is "core"; host access links are
   "host"; intra-pod leaf/spine faults are "pod"; vswitch-side loss
   profiles are "vedge" *)
let tier_of_event (n : Fault_plan.names) topo (ev : Fault_plan.event) =
  let level_of node =
    match Topology.node topo node with
    | Topology.Host_node _ -> None
    | Topology.Switch_node (lvl, _) -> Some lvl
  in
  let switch_tier lvl =
    match lvl with Switch.Core_sw -> "core" | Switch.Leaf | Switch.Spine -> "pod"
  in
  let edge_tier name =
    match n.resolve_edge name with
    | None -> "unknown"
    | Some e -> (
      match (level_of e.Topology.a, level_of e.Topology.b) with
      | Some Switch.Core_sw, _ | _, Some Switch.Core_sw -> "core"
      | None, _ | _, None -> "host"
      | Some _, Some _ -> "pod")
  in
  match ev.Fault_plan.spec with
  | Fault_plan.Down e | Fault_plan.Up e
  | Fault_plan.Flap { edge = e; _ }
  | Fault_plan.Brownout { edge = e; _ } ->
    edge_tier e
  | Fault_plan.Switch_down s | Fault_plan.Switch_up s -> (
    match n.resolve_switch s with
    | None -> "unknown"
    | Some node -> (
      match level_of node with Some lvl -> switch_tier lvl | None -> "unknown"))
  | Fault_plan.Feedback_loss _ | Fault_plan.Probe_loss _ -> "vedge"

(* a plan event with its names resolved, as [arm] hands it to [fire] *)
type action =
  | Edge_down of Topology.edge
  | Edge_up of Topology.edge
  | Flap of { edge : Topology.edge; period : Sim_time.span; duty : float }
  | Brownout of {
      edge : Topology.edge;
      capacity_frac : float;
      loss_prob : float;
      rng : Rng.t;
    }
  | Feedback_loss of float
  | Probe_loss of float
  | Switch_down of int
  | Switch_up of int

type t = {
  sched : Scheduler.t;
  fabric : Fabric.t;
  vswitches : Clove.Vswitch.t array;
  naming : Fault_plan.names;
  rng : Rng.t;
  mutable fb_prob : float;
  mutable probe_prob : float;
  (* switch node -> edges this engine took down for it, so switch-up
     restores exactly those and leaves independently failed edges alone *)
  mutable switch_failed : (int * Topology.edge list) list;
  mutable fired : int;
  mutable flap_transitions : int;
  mutable stopped : bool;
}

let create ~sched ~fabric ~vswitches ~naming ~rng =
  {
    sched;
    fabric;
    vswitches;
    naming;
    rng;
    fb_prob = 0.0;
    probe_prob = 0.0;
    switch_failed = [];
    fired = 0;
    flap_transitions = 0;
    stopped = false;
  }

let events_fired t = t.fired
let flap_transitions t = t.flap_transitions
let stop t = t.stopped <- true

(* ----------------------------- actions ---------------------------- *)

let edge_down t e =
  if not e.Topology.failed then Fabric.fail_edge t.fabric e

let edge_up t e = if e.Topology.failed then Fabric.restore_edge t.fabric e

let set_loss_profiles t ~feedback ~probe =
  t.fb_prob <- feedback;
  t.probe_prob <- probe;
  Array.iter
    (fun v ->
      Clove.Vswitch.set_fault_profile v ~feedback_loss:feedback
        ~probe_loss:probe)
    t.vswitches

let rec flap_cycle t e ~period ~duty ~until =
  let expired =
    match until with
    | None -> false
    | Some limit -> Sim_time.(Scheduler.now t.sched >= limit)
  in
  if t.stopped || expired then edge_up t e
  else begin
    edge_down t e;
    t.flap_transitions <- t.flap_transitions + 1;
    let down_for = Sim_time.mul_span period duty in
    let up_for = Sim_time.mul_span period (1.0 -. duty) in
    Scheduler.schedule t.sched ~after:down_for (fun () ->
        edge_up t e;
        t.flap_transitions <- t.flap_transitions + 1;
        Scheduler.schedule t.sched ~after:up_for (fun () ->
            flap_cycle t e ~period ~duty ~until))
  end

(* the one place a brownout or loss profile ends: at its [until] *)
let at_until t until undo =
  match until with
  | None -> ()
  | Some time -> Scheduler.schedule_at t.sched ~time undo

let fire t ~until action =
  if not t.stopped then begin
    t.fired <- t.fired + 1;
    match action with
    | Edge_down e -> edge_down t e
    | Edge_up e -> edge_up t e
    | Flap { edge; period; duty } -> flap_cycle t edge ~period ~duty ~until
    | Brownout { edge; capacity_frac; loss_prob; rng } ->
      Fabric.set_edge_brownout t.fabric edge ~capacity_frac ~loss_prob ~rng;
      at_until t until (fun () -> Fabric.clear_edge_brownout t.fabric edge)
    | Feedback_loss p ->
      set_loss_profiles t ~feedback:p ~probe:t.probe_prob;
      at_until t until (fun () ->
          set_loss_profiles t ~feedback:0.0 ~probe:t.probe_prob)
    | Probe_loss p ->
      set_loss_profiles t ~feedback:t.fb_prob ~probe:p;
      at_until t until (fun () ->
          set_loss_profiles t ~feedback:t.fb_prob ~probe:0.0)
    | Switch_down node ->
      (* one entry per switch: a repeated switch-down adds only the edges
         it newly failed to the ones the first took down *)
      let earlier = Option.value (List.assoc_opt node t.switch_failed) ~default:[] in
      t.switch_failed <-
        (node, Fabric.fail_switch t.fabric node @ earlier)
        :: List.remove_assoc node t.switch_failed
    | Switch_up node -> (
      match List.assoc_opt node t.switch_failed with
      | None -> ()
      | Some edges ->
        t.switch_failed <- List.remove_assoc node t.switch_failed;
        Fabric.restore_edges t.fabric edges)
  end

(* ------------------------------ arming ---------------------------- *)

let resolve t (ev : Fault_plan.event) =
  let edge name action =
    match t.naming.Fault_plan.resolve_edge name with
    | Some e -> Ok (action e)
    | None -> Error (Printf.sprintf "unknown edge %S" name)
  in
  let switch name action =
    match t.naming.Fault_plan.resolve_switch name with
    | Some node -> Ok (action node)
    | None -> Error (Printf.sprintf "unknown switch %S" name)
  in
  match ev.Fault_plan.spec with
  | Fault_plan.Down n -> edge n (fun e -> Edge_down e)
  | Fault_plan.Up n -> edge n (fun e -> Edge_up e)
  | Fault_plan.Flap { edge = n; period; duty } ->
    edge n (fun e -> Flap { edge = e; period; duty })
  | Fault_plan.Brownout { edge = n; capacity_frac; loss_prob } ->
    edge n (fun e ->
        Brownout
          {
            edge = e;
            capacity_frac;
            loss_prob;
            rng = Rng.split_named t.rng ("edge:" ^ n);
          })
  | Fault_plan.Feedback_loss p -> Ok (Feedback_loss p)
  | Fault_plan.Probe_loss p -> Ok (Probe_loss p)
  | Fault_plan.Switch_down n -> switch n (fun node -> Switch_down node)
  | Fault_plan.Switch_up n -> switch n (fun node -> Switch_up node)

let arm t plan =
  (* resolve the whole plan before scheduling any of it, so a plan with
     an unknown name arms nothing *)
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | ev :: rest -> (
      match resolve t ev with
      | Ok action -> resolve_all ((ev, action) :: acc) rest
      | Error _ as e -> e)
  in
  match resolve_all [] plan with
  | Error _ as e -> e
  | Ok resolved ->
    List.iter
      (fun ((ev : Fault_plan.event), action) ->
        let until = Option.map Sim_time.of_span ev.Fault_plan.until in
        Scheduler.schedule_at t.sched
          ~time:(Sim_time.of_span ev.Fault_plan.at)
          (fun () -> fire t ~until action))
      resolved;
    Ok ()
