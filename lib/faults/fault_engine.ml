type naming = {
  resolve_edge : string -> Topology.edge option;
  resolve_switch : string -> int option;
}

(* edge names are "<switch>-<switch>" in either order under any switch
   naming; a trailing letter on the second component selects the parallel
   link of the bundle ("s2-l2b" = bundle index 1) *)
let edge_naming ~topo resolve_switch =
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
      | Some na, Some nb -> Topology.find_edge topo ~a:na ~b:nb ~bundle_index:bundle
      | _ -> None)
    | _ -> None
  in
  { resolve_edge; resolve_switch }

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
  edge_naming ~topo:c.Topology.topo resolve_switch

(* which tier a plan event disturbs, for per-tier scorecard breakdowns:
   any edge or switch touching a core is "core"; host access links are
   "host"; intra-pod leaf/spine faults are "pod"; vswitch-side loss
   profiles are "vedge" *)
let tier_of_event (n : naming) topo (ev : Fault_plan.event) =
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

let names (n : naming) : Fault_plan.names =
  {
    Fault_plan.edge_known = (fun s -> Option.is_some (n.resolve_edge s));
    switch_known = (fun s -> Option.is_some (n.resolve_switch s));
  }

type t = {
  sched : Scheduler.t;
  fabric : Fabric.t;
  vswitches : Clove.Vswitch.t array;
  naming : naming;
  rng : Rng.t;
  mutable fb_prob : float;
  mutable probe_prob : float;
  (* switch name -> edges this engine took down for it, so switch-up
     restores exactly those and leaves independently failed edges alone *)
  mutable switch_failed : (string * Topology.edge list) list;
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

let push_loss_profiles t =
  Array.iter
    (fun v ->
      Clove.Vswitch.set_fault_profile v ~feedback_loss:t.fb_prob
        ~probe_loss:t.probe_prob)
    t.vswitches

let rec flap_cycle t e ~period ~duty ~stop_at =
  let expired =
    match stop_at with
    | None -> false
    | Some limit -> Sim_time.(Scheduler.now t.sched >= limit)
  in
  if t.stopped || expired then edge_up t e
  else begin
    edge_down t e;
    t.flap_transitions <- t.flap_transitions + 1;
    let down_for = Sim_time.mul_span period duty in
    let up_for = Sim_time.mul_span period (1.0 -. duty) in
    let (_ : Scheduler.handle) =
      Scheduler.schedule t.sched ~after:down_for (fun () ->
          edge_up t e;
          t.flap_transitions <- t.flap_transitions + 1;
          let (_ : Scheduler.handle) =
            Scheduler.schedule t.sched ~after:up_for (fun () ->
                flap_cycle t e ~period ~duty ~stop_at)
          in
          ())
    in
    ()
  end

let fire t (ev : Fault_plan.event) =
  if not t.stopped then begin
    t.fired <- t.fired + 1;
    match ev.Fault_plan.spec with
    | Fault_plan.Down name -> (
      match t.naming.resolve_edge name with
      | Some e -> edge_down t e
      | None -> ())
    | Fault_plan.Up name -> (
      match t.naming.resolve_edge name with
      | Some e -> edge_up t e
      | None -> ())
    | Fault_plan.Flap { edge; period; duty; stop } -> (
      match t.naming.resolve_edge edge with
      | None -> ()
      | Some e ->
        let stop_at = Option.map Sim_time.of_span stop in
        flap_cycle t e ~period ~duty ~stop_at)
    | Fault_plan.Brownout { edge; capacity_frac; loss_prob; until } -> (
      match t.naming.resolve_edge edge with
      | None -> ()
      | Some e ->
        Fabric.set_edge_brownout t.fabric e ~capacity_frac ~loss_prob
          ~rng:(Rng.split_named t.rng ("edge:" ^ edge));
        (match until with
        | None -> ()
        | Some stop ->
          let (_ : Scheduler.handle) =
            Scheduler.schedule_at t.sched ~time:(Sim_time.of_span stop)
              (fun () -> Fabric.clear_edge_brownout t.fabric e)
          in
          ()))
    | Fault_plan.Feedback_loss { prob; until } ->
      t.fb_prob <- prob;
      push_loss_profiles t;
      (match until with
      | None -> ()
      | Some stop ->
        let (_ : Scheduler.handle) =
          Scheduler.schedule_at t.sched ~time:(Sim_time.of_span stop) (fun () ->
              t.fb_prob <- 0.0;
              push_loss_profiles t)
        in
        ())
    | Fault_plan.Probe_loss { prob; until } ->
      t.probe_prob <- prob;
      push_loss_profiles t;
      (match until with
      | None -> ()
      | Some stop ->
        let (_ : Scheduler.handle) =
          Scheduler.schedule_at t.sched ~time:(Sim_time.of_span stop) (fun () ->
              t.probe_prob <- 0.0;
              push_loss_profiles t)
        in
        ())
    | Fault_plan.Switch_down name -> (
      match t.naming.resolve_switch name with
      | None -> ()
      | Some node ->
        let failed = Fabric.fail_switch t.fabric node in
        t.switch_failed <- (name, failed) :: t.switch_failed)
    | Fault_plan.Switch_up name -> (
      match List.assoc_opt name t.switch_failed with
      | None -> ()
      | Some edges ->
        t.switch_failed <- List.remove_assoc name t.switch_failed;
        Fabric.restore_edges t.fabric edges)
  end

(* ------------------------------ arming ---------------------------- *)

let validate t plan =
  let missing_edge name =
    match t.naming.resolve_edge name with
    | Some _ -> None
    | None -> Some (Printf.sprintf "unknown edge %S" name)
  in
  let missing_switch name =
    match t.naming.resolve_switch name with
    | Some _ -> None
    | None -> Some (Printf.sprintf "unknown switch %S" name)
  in
  let problem (ev : Fault_plan.event) =
    match ev.Fault_plan.spec with
    | Fault_plan.Down n | Fault_plan.Up n
    | Fault_plan.Flap { edge = n; _ }
    | Fault_plan.Brownout { edge = n; _ } ->
      missing_edge n
    | Fault_plan.Switch_down n | Fault_plan.Switch_up n -> missing_switch n
    | Fault_plan.Feedback_loss _ | Fault_plan.Probe_loss _ -> None
  in
  List.find_map problem plan

let arm t plan =
  match validate t plan with
  | Some err -> Error err
  | None ->
    List.iter
      (fun (ev : Fault_plan.event) ->
        let (_ : Scheduler.handle) =
          Scheduler.schedule_at t.sched
            ~time:(Sim_time.of_span ev.Fault_plan.at)
            (fun () -> fire t ev)
        in
        ())
      plan;
    Ok ()
