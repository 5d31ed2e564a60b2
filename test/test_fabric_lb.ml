(* Tests for the in-fabric load balancers: CONGA, their shared flowlet
   route and the 3-tier CAFT baseline. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build ?(asymmetric = false) () =
  let params = { Experiments.Scenario.default_params with asymmetric; seed = 9 } in
  Experiments.Scenario.build ~scheme:Experiments.Scenario.S_conga params

let leaf_ids scn =
  Array.to_list (Fabric.switches (Experiments.Scenario.fabric scn))
  |> List.filter (fun sw -> Switch.level sw = Switch.Leaf)
  |> List.map Switch.id

let test_conga_delivers () =
  let scn = build () in
  let sched = Experiments.Scenario.sched scn in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  let submit = Experiments.Scenario.connect scn ~src:client ~dst:server in
  let finished = ref false in
  Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
      submit ~bytes:500_000 ~on_complete:(fun () -> finished := true));
  Scheduler.run ~until:(Sim_time.of_ns 100_000_000) sched;
  check_bool "transfer completed" true !finished;
  Experiments.Scenario.quiesce scn

let test_conga_metadata_flows () =
  (* after traffic in both directions, the source leaf must have learned
     CongToLeaf metrics through piggybacked feedback *)
  let scn = build () in
  let sched = Experiments.Scenario.sched scn in
  let clients = Experiments.Scenario.clients scn in
  let server = (Experiments.Scenario.servers scn).(0) in
  let submits =
    Array.map (fun c -> Experiments.Scenario.connect scn ~src:c ~dst:server) clients
  in
  Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
      Array.iter (fun s -> s ~bytes:2_000_000 ~on_complete:(fun () -> ())) submits);
  (* read the tables while traffic is still flowing: CONGA ages metrics
     out after 10 ms of silence *)
  Scheduler.run ~until:(Sim_time.of_ns 9_000_000) sched;
  let conga =
    match Experiments.Scenario.conga scn with
    | Some c -> c
    | None -> Alcotest.fail "conga not installed"
  in
  check_bool "made decisions" true (Fabric_lb.Conga.decisions conga > 0);
  check_bool "created flowlets" true (Fabric_lb.Conga.flowlets_started conga > 0);
  (match leaf_ids scn with
  | [ l1; l2 ] ->
    (* the client leaf learned utilization toward the server leaf on at
       least one uplink *)
    let metrics = Fabric_lb.Conga.cong_to_leaf conga ~leaf:l1 ~dst_leaf:l2 in
    check_int "4 uplinks" 4 (Array.length metrics);
    check_bool "some non-zero metric" true (Array.exists (fun m -> m > 0.0) metrics)
  | _ -> Alcotest.fail "expected two leaves");
  Experiments.Scenario.quiesce scn

let test_conga_avoids_degraded_spine () =
  (* asymmetric fabric: CONGA must shift load away from the degraded
     spine.  Compare bytes carried by the two spines. *)
  let scn = build ~asymmetric:true () in
  let sched = Experiments.Scenario.sched scn in
  let clients = Experiments.Scenario.clients scn in
  let servers = Experiments.Scenario.servers scn in
  Array.iteri
    (fun i c ->
      let submit =
        Experiments.Scenario.connect scn ~src:c ~dst:servers.(i mod Array.length servers)
      in
      Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
          submit ~bytes:4_000_000 ~on_complete:(fun () -> ())))
    clients;
  Scheduler.run ~until:(Sim_time.of_ns 60_000_000) sched;
  let spines =
    Array.to_list (Fabric.switches (Experiments.Scenario.fabric scn))
    |> List.filter (fun sw -> Switch.level sw = Switch.Spine)
  in
  (match spines with
  | [ s1; s2 ] ->
    (* s2 is degraded (half its capacity toward L2): it must carry less *)
    check_bool "healthy spine carries more" true
      (Switch.rx_packets s1 > Switch.rx_packets s2)
  | _ -> Alcotest.fail "expected two spines");
  Experiments.Scenario.quiesce scn

let test_conga_asymmetric_beats_ecmp () =
  (* the paper's core claim about utilization-aware fabric LB: under
     asymmetry CONGA clearly beats ECMP on average FCT *)
  let run scheme =
    let params =
      {
        Experiments.Scenario.default_params with
        Experiments.Scenario.asymmetric = true;
        seed = 2;
      }
    in
    Workload.Fct_stats.avg
      (Experiments.Sweep.websearch_run ~mode:Run_mode.default ~scheme ~params ~load:0.6
         ~jobs_per_conn:60)
  in
  let ecmp = run Experiments.Scenario.S_ecmp in
  let conga = run Experiments.Scenario.S_conga in
  check_bool
    (Printf.sprintf "conga (%.4fs) beats ecmp (%.4fs)" conga ecmp)
    true (conga < ecmp)

(* -------------------------- flowlet route -------------------------- *)

let test_flowlet_route_repick () =
  (* the chooser runs for a new flowlet, is skipped while the cached port
     is a candidate, and runs once more after that port is pruned *)
  let sched = Scheduler.create () in
  let sw = Switch.create ~sched ~id:1 ~level:Switch.Leaf ~ecmp_seed:0 () in
  let tbl = Fabric_lb.Flowlet_route.table sw ~gap:(Sim_time.us 500) in
  let seg =
    {
      Packet.conn_id = 1;
      subflow = 0;
      src_port = 1;
      dst_port = 2;
      seq = 0;
      ack = 0;
      kind = Packet.Data;
      payload = 1000;
      ece = false;
    }
  in
  let pkt = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 9) ~seg in
  let calls = ref 0 and next = ref 3 in
  let route candidates =
    Fabric_lb.Flowlet_route.route tbl pkt ~candidates ~choose:(fun () ->
        incr calls;
        !next)
  in
  check_int "new flowlet: chosen port" 3 (route [| 2; 3 |]);
  check_int "chooser ran once" 1 !calls;
  next := 2;
  check_int "cached port while a candidate" 3 (route [| 2; 3 |]);
  check_int "chooser not called" 1 !calls;
  check_int "pruned port: re-picked" 2 (route [| 2 |]);
  check_int "chooser ran once more" 2 !calls;
  check_int "one flowlet" 1 (Clove.Flowlet.flowlets_started tbl)

(* ------------------------------- CAFT ------------------------------ *)

let build_caft () =
  let params =
    {
      Experiments.Scenario.default_params with
      Experiments.Scenario.pods = 2;
      hosts_per_leaf = 2;
      seed = 9;
    }
  in
  Experiments.Scenario.build ~scheme:Experiments.Scenario.S_caft params

let test_caft_delivers_across_core () =
  (* an inter-pod transfer completes, and the hop-by-hop pickers on
     leaves, spines and cores all made flowlet decisions along the way *)
  let scn = build_caft () in
  let sched = Experiments.Scenario.sched scn in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  let submit = Experiments.Scenario.connect scn ~src:client ~dst:server in
  let finished = ref false in
  Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
      submit ~bytes:500_000 ~on_complete:(fun () -> finished := true));
  Scheduler.run ~until:(Sim_time.of_ns 100_000_000) sched;
  check_bool "transfer completed" true !finished;
  let caft =
    match Experiments.Scenario.caft scn with
    | Some c -> c
    | None -> Alcotest.fail "caft not installed"
  in
  check_bool "made decisions" true (Fabric_lb.Caft.decisions caft > 0);
  check_bool "created flowlets" true
    (Fabric_lb.Caft.flowlets_started caft > 0);
  check_int "reweighted once at install" 1 (Fabric_lb.Caft.reweights caft);
  check_bool "core tier built" true
    (Array.exists
       (function Topology.Switch_node (Switch.Core_sw, _) -> true | _ -> false)
       (Topology.nodes (Fabric.topology (Experiments.Scenario.fabric scn))));
  Experiments.Scenario.quiesce scn

let test_caft_spreads_over_both_cores () =
  (* with two core uplinks per spine, sustained inter-pod traffic must
     use more than one core (a single-path scheme would pin to one) *)
  let scn = build_caft () in
  let sched = Experiments.Scenario.sched scn in
  let clients = Experiments.Scenario.clients scn in
  let servers = Experiments.Scenario.servers scn in
  Array.iteri
    (fun i c ->
      let submit =
        Experiments.Scenario.connect scn ~src:c
          ~dst:servers.(i mod Array.length servers)
      in
      Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
          submit ~bytes:4_000_000 ~on_complete:(fun () -> ())))
    clients;
  Scheduler.run ~until:(Sim_time.of_ns 60_000_000) sched;
  let cores =
    Array.to_list (Fabric.switches (Experiments.Scenario.fabric scn))
    |> List.filter (fun sw -> Switch.level sw = Switch.Core_sw)
    |> List.filter (fun sw -> Switch.rx_packets sw > 0)
  in
  check_bool
    (Printf.sprintf "%d cores carried traffic" (List.length cores))
    true
    (List.length cores >= 2);
  Experiments.Scenario.quiesce scn

let () =
  Alcotest.run "fabric_lb"
    [
      ( "conga",
        [
          Alcotest.test_case "delivers" `Quick test_conga_delivers;
          Alcotest.test_case "metadata flows" `Quick test_conga_metadata_flows;
          Alcotest.test_case "avoids degraded spine" `Slow test_conga_avoids_degraded_spine;
          Alcotest.test_case "beats ecmp under asymmetry" `Slow test_conga_asymmetric_beats_ecmp;
        ] );
      ( "flowlet-route",
        [ Alcotest.test_case "re-picks a pruned port" `Quick test_flowlet_route_repick ] );
      ( "caft",
        [
          Alcotest.test_case "delivers across the core" `Quick
            test_caft_delivers_across_core;
          Alcotest.test_case "spreads over both cores" `Quick
            test_caft_spreads_over_both_cores;
        ] );
    ]
