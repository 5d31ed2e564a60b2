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
let tier_of_event names topo (ev : Fault_plan.event) =
  let level_of node =
    match Topology.node topo node with
    | Topology.Host_node _ -> None
    | Topology.Switch_node (lvl, _) -> Some lvl
  in
  match Fault_plan.resolve names ev.Fault_plan.spec with
  | Error _ -> "unknown"
  | Ok Fault_plan.Vedge -> "vedge"
  | Ok (Fault_plan.Switch node) -> (
    match level_of node with
    | Some Switch.Core_sw -> "core"
    | Some (Switch.Leaf | Switch.Spine) -> "pod"
    | None -> "unknown")
  | Ok (Fault_plan.Edge e) -> (
    match (level_of e.Topology.a, level_of e.Topology.b) with
    | Some Switch.Core_sw, _ | _, Some Switch.Core_sw -> "core"
    | None, _ | _, None -> "host"
    | Some _, Some _ -> "pod")

type t = {
  sched : Scheduler.t;
  fabric : Fabric.t;
  vswitches : Clove.Vswitch.t array;
  naming : Fault_plan.names;
  rng : Rng.t;
  (* switch node -> edges this engine took down for it, so switch-up
     restores exactly those and leaves independently failed edges alone *)
  switch_failed : Topology.edge list Int_table.t;
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
    switch_failed = Int_table.create ~capacity:8 ~dummy:[];
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

let switch_down t node =
  (* one entry per switch: a repeated switch-down adds only the edges it
     newly failed to the ones the first took down *)
  let earlier = Int_table.find_default t.switch_failed node [] in
  Int_table.set t.switch_failed node (Fabric.fail_switch t.fabric node @ earlier)

let switch_up t node =
  match Int_table.find_opt t.switch_failed node with
  | None -> ()
  | Some edges ->
    Int_table.remove t.switch_failed node;
    Fabric.restore_edges t.fabric edges

(* what [ev] does to its resolved [target] when it fires; built at arm
   time, so a brownout's stream is drawn then *)
let action t (ev : Fault_plan.event) target =
  let until = Option.map Sim_time.of_span ev.Fault_plan.until in
  let loss set p =
    let all p () = Array.iter (fun v -> set v p) t.vswitches in
    fun () ->
      all p ();
      at_until t until (all 0.0)
  in
  match (ev.Fault_plan.spec, target) with
  | Fault_plan.Down _, Fault_plan.Edge e -> fun () -> edge_down t e
  | Fault_plan.Up _, Fault_plan.Edge e -> fun () -> edge_up t e
  | Fault_plan.Flap { period; duty; _ }, Fault_plan.Edge e ->
    fun () -> flap_cycle t e ~period ~duty ~until
  | Fault_plan.Brownout { edge; capacity_frac; loss_prob }, Fault_plan.Edge e ->
    let rng = Rng.split_named t.rng ("edge:" ^ edge) in
    fun () ->
      Fabric.set_edge_brownout t.fabric e ~capacity_frac ~loss_prob ~rng;
      at_until t until (fun () -> Fabric.clear_edge_brownout t.fabric e)
  | Fault_plan.Feedback_loss p, Fault_plan.Vedge -> loss Clove.Vswitch.set_feedback_loss p
  | Fault_plan.Probe_loss p, Fault_plan.Vedge -> loss Clove.Vswitch.set_probe_loss p
  | Fault_plan.Switch_down _, Fault_plan.Switch node -> fun () -> switch_down t node
  | Fault_plan.Switch_up _, Fault_plan.Switch node -> fun () -> switch_up t node
  | _, (Fault_plan.Edge _ | Fault_plan.Switch _ | Fault_plan.Vedge) ->
    invalid_arg "Fault_engine: a target not resolved from its own spec"

(* ------------------------------ arming ---------------------------- *)

let arm t plan =
  (* resolve the whole plan before scheduling any of it, so a plan with
     an unknown name arms nothing *)
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | (ev : Fault_plan.event) :: rest -> (
      match Fault_plan.resolve t.naming ev.Fault_plan.spec with
      | Ok target -> resolve_all ((ev.Fault_plan.at, action t ev target) :: acc) rest
      | Error _ as e -> e)
  in
  match resolve_all [] plan with
  | Error _ as e -> e
  | Ok actions ->
    List.iter
      (fun (at, run) ->
        Scheduler.schedule_at t.sched ~time:(Sim_time.of_span at) (fun () ->
            if not t.stopped then begin
              t.fired <- t.fired + 1;
              run ()
            end))
      actions;
    Ok ()
