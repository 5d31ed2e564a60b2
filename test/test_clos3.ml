(* Tests for the 3-tier Clos builder, its fault naming, parse-time plan
   validation, core-tier failure accounting, the CAFT reweighting state,
   and the no-black-hole reconvergence property. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Experiments

let us = Sim_time.us

(* 2 pods x (2 leaves, 2 spines), 4 cores, 2 hosts/leaf, 2 parallel
   intra-pod links; heterogeneous rates per stage *)
let mk_clos3 () =
  Topology.clos ~pods:2 ~leaves_per_pod:2 ~spines_per_pod:2 ~cores:4
    ~hosts_per_leaf:2 ~parallel:2 ~host_rate_bps:10e9 ~fabric_rate_bps:20e9
    ~core_rate_bps:40e9 ~delay:(us 2)

(* ------------------------------- shape ----------------------------- *)

let test_shape () =
  let c3 = mk_clos3 () in
  let topo = c3.Topology.topo in
  check_int "pods" 2 c3.Topology.pods;
  check_int "leaves" 4 (Array.length c3.Topology.leaf_ids);
  check_int "spines" 4 (Array.length c3.Topology.spine_ids);
  check_int "cores" 4 (Array.length c3.Topology.core_ids);
  (* 4 leaves + 4 spines + 4 cores + 8 hosts *)
  check_int "nodes" 20 (Topology.node_count topo);
  Array.iter
    (fun hs -> check_int "hosts per leaf" 2 (Array.length hs))
    c3.Topology.host_ids;
  (* core k homes on spine (k mod spines_per_pod) of every pod, at the
     core stage's own rate *)
  Array.iteri
    (fun k core ->
      for pod = 0 to c3.Topology.pods - 1 do
        let spine =
          c3.Topology.spine_ids.((pod * c3.Topology.spines_per_pod)
                                 + (k mod c3.Topology.spines_per_pod))
        in
        match Topology.find_edge topo ~a:spine ~b:core ~bundle_index:0 with
        | Some e ->
          check_bool "core edge rate" true (e.Topology.rate_bps = 40e9)
        | None -> Alcotest.failf "core %d not wired to pod %d" k pod
      done)
    c3.Topology.core_ids;
  (* intra-pod stage: every leaf reaches every spine of its own pod with
     both parallel bundles, and no spine of the other pod *)
  let leaf0 = c3.Topology.leaf_ids.(0) in
  let own_spine = c3.Topology.spine_ids.(0) in
  let foreign_spine = c3.Topology.spine_ids.(2) in
  check_bool "parallel bundle b" true
    (Topology.find_edge topo ~a:leaf0 ~b:own_spine ~bundle_index:1 <> None);
  check_bool "no cross-pod leaf-spine edge" true
    (Topology.find_edge topo ~a:leaf0 ~b:foreign_spine ~bundle_index:0 = None)

let test_clos_validation () =
  let bad ~pods ~cores =
    match
      Topology.clos ~pods ~leaves_per_pod:2 ~spines_per_pod:2 ~cores
        ~hosts_per_leaf:1 ~parallel:1 ~host_rate_bps:1e9 ~fabric_rate_bps:1e9
        ~core_rate_bps:1e9 ~delay:(us 1)
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "pods=%d cores=%d: expected Invalid_argument" pods cores
  in
  bad ~pods:0 ~cores:2;
  (* cores must be a multiple of spines_per_pod *)
  bad ~pods:2 ~cores:3;
  (* only one pod may go without a core tier *)
  bad ~pods:2 ~cores:0;
  bad ~pods:1 ~cores:(-2)

(* ------------------------------ naming ----------------------------- *)

let test_naming_round_trip () =
  let c3 = mk_clos3 () in
  let naming = Faults.Fault_engine.clos_naming c3 in
  let sw name =
    match naming.Faults.Fault_plan.resolve_switch name with
    | Some id -> id
    | None -> Alcotest.failf "switch %S did not resolve" name
  in
  (* cores are 0-based *)
  check_int "core0" c3.Topology.core_ids.(0) (sw "core0");
  check_int "core3" c3.Topology.core_ids.(3) (sw "core3");
  (* pod-scoped names are 1-based; flat pod-major names resolve too *)
  check_int "s1.1" c3.Topology.spine_ids.(0) (sw "s1.1");
  check_int "s2.2" c3.Topology.spine_ids.(3) (sw "s2.2");
  check_int "l2.1" c3.Topology.leaf_ids.(2) (sw "l2.1");
  check_int "s3 = s2.1" (sw "s2.1") (sw "s3");
  check_int "l4 = l2.2" (sw "l2.2") (sw "l4");
  let edge name =
    match naming.Faults.Fault_plan.resolve_edge name with
    | Some e -> e
    | None -> Alcotest.failf "edge %S did not resolve" name
  in
  (* either endpoint order; bundle letters select parallel links *)
  let e1 = edge "s1.1-core0" in
  let e1' = edge "core0-s1.1" in
  check_bool "endpoint order irrelevant" true
    (e1.Topology.edge_id = e1'.Topology.edge_id);
  let b0 = edge "l1.1-s1.2" in
  let b1 = edge "l1.1-s1.2b" in
  check_bool "bundle letter picks the parallel link" true
    (b0.Topology.edge_id <> b1.Topology.edge_id
    && b1.Topology.bundle_index = 1);
  (* unknowns stay unresolved *)
  let no_sw n = naming.Faults.Fault_plan.resolve_switch n = None in
  let no_edge n = naming.Faults.Fault_plan.resolve_edge n = None in
  check_bool "core4 unknown" true (no_sw "core4");
  check_bool "s3.1 unknown" true (no_sw "s3.1");
  check_bool "l1.3 unknown" true (no_sw "l1.3");
  check_bool "leaf-core edge unknown" true (no_edge "l1.1-core0");
  check_bool "cross-pod edge unknown" true (no_edge "l1.1-s2.1")

(* on one pod the pod-scoped names are aliases of the flat ones *)
let test_one_pod_naming () =
  let naming =
    Faults.Fault_engine.clos_naming
      (Scenario.build_topology Scenario.default_params)
  in
  let sw name =
    match naming.Faults.Fault_plan.resolve_switch name with
    | Some id -> id
    | None -> Alcotest.failf "switch %S did not resolve" name
  in
  let edge name =
    match naming.Faults.Fault_plan.resolve_edge name with
    | Some e -> e.Topology.edge_id
    | None -> Alcotest.failf "edge %S did not resolve" name
  in
  check_int "l1.2 = l2" (sw "l2") (sw "l1.2");
  check_int "s1.1 = s1" (sw "s1") (sw "s1.1");
  check_int "s1.2-l1.2b = s2-l2b" (edge "s2-l2b") (edge "s1.2-l1.2b");
  check_bool "no pod 2" true (naming.Faults.Fault_plan.resolve_switch "l2.1" = None);
  check_bool "no cores" true (naming.Faults.Fault_plan.resolve_switch "core0" = None)

let test_parse_time_validation () =
  (* Fault_plan.parse ~names rejects unknown names at parse time with an
     error naming the offender, before any scenario exists *)
  let params =
    { Scenario.default_params with Scenario.pods = 2; seed = 3 }
  in
  let names = Scenario.fault_names params in
  let ok spec =
    match Faults.Fault_plan.parse ~names spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "%S should parse: %s" spec e
  in
  let bad spec needle =
    match Faults.Fault_plan.parse ~names spec with
    | Ok _ -> Alcotest.failf "%S should be rejected" spec
    | Error e ->
      let contains s sub =
        let ls = String.length s and lsub = String.length sub in
        let rec go i =
          i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1))
        in
        go 0
      in
      check_bool
        (Printf.sprintf "error %S mentions %s" e needle)
        true (contains e needle)
  in
  ignore (ok "down s1.1-core0@60ms; up s1.1-core0@120ms");
  ignore (ok "switch-down core1@10ms; switch-up core1@20ms");
  ignore (ok "brownout s2.1-core0 frac=0.1 loss=0.05 @60ms");
  bad "down s9.1-core0@60ms" "unknown edge";
  bad "switch-down core9@10ms" "unknown switch";
  bad "flap l1.1-core0 period=10ms @20ms" "unknown edge";
  (* the same specs parse fine without names — validation is opt-in *)
  match Faults.Fault_plan.parse "down s9.1-core0@60ms" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "nameless parse should succeed: %s" e

let test_tier_classification () =
  let c3 = mk_clos3 () in
  let topo = c3.Topology.topo in
  let naming = Faults.Fault_engine.clos_naming c3 in
  let tier spec =
    match Faults.Fault_plan.parse spec with
    | Ok [ ev ] -> Faults.Fault_engine.tier_of_event naming topo ev
    | Ok _ -> Alcotest.failf "%S: expected one event" spec
    | Error e -> Alcotest.failf "%S: %s" spec e
  in
  Alcotest.(check string) "core edge" "core" (tier "down s1.1-core0@1ms");
  Alcotest.(check string) "core switch" "core" (tier "switch-down core2@1ms");
  Alcotest.(check string) "pod edge" "pod" (tier "down l1.1-s1.2@1ms");
  Alcotest.(check string) "pod switch" "pod" (tier "switch-down s2.2@1ms");
  Alcotest.(check string) "vedge" "vedge" (tier "feedback-loss p=0.5 @1ms");
  Alcotest.(check string) "unknown" "unknown" (tier "down s9.9-core9@1ms")

(* -------------------- core switch-down accounting ------------------ *)

let mk_seg () =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 1000;
    dst_port = 80;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload = 1400;
    ece = false;
  }

let mk_data () =
  Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:(mk_seg ())

let test_core_switch_down_accounting () =
  (* failing a core switch drains every incident link's queue, and the
     lost bytes land in the queue statistics (both the drain and any
     late send), so packet-conservation audits balance at the core tier *)
  let c3 = mk_clos3 () in
  let topo = c3.Topology.topo in
  let sched = Scheduler.create () in
  let fabric = Fabric.create ~sched ~config:Fabric.default_config topo in
  let core0 = c3.Topology.core_ids.(0) in
  let spine0 = c3.Topology.spine_ids.(0) in
  let edge =
    match Topology.find_edge topo ~a:spine0 ~b:core0 ~bundle_index:0 with
    | Some e -> e
    | None -> Alcotest.fail "no spine-core edge"
  in
  let to_core, _ = Fabric.links_of_edge fabric edge in
  let to_core =
    if edge.Topology.a = spine0 then to_core
    else snd (Fabric.links_of_edge fabric edge)
  in
  let size = (mk_data ()).Packet.size in
  for _ = 1 to 5 do
    Link.send to_core (mk_data ())
  done;
  (* one packet serializing, four queued *)
  let failed = Fabric.fail_switch fabric core0 in
  (* core0 has one uplink per pod *)
  check_int "incident edges failed" c3.Topology.pods (List.length failed);
  check_bool "our edge among them" true
    (List.exists
       (fun (e : Topology.edge) ->
         e.Topology.edge_id = edge.Topology.edge_id)
       failed);
  let st = Pkt_queue.stats (Link.queue to_core) in
  check_int "drained packets counted" 4 st.Pkt_queue.dropped;
  check_int "drained bytes counted" (4 * size) st.Pkt_queue.dropped_bytes;
  (* a send against the dead egress is accounted the same way *)
  Link.send to_core (mk_data ());
  let st = Pkt_queue.stats (Link.queue to_core) in
  check_int "late send counted" 5 st.Pkt_queue.dropped;
  check_int "late bytes counted" (5 * size) st.Pkt_queue.dropped_bytes;
  Scheduler.run sched;
  (* serializing packet dies at txdone: 4 drained + 1 in flight + 1 late *)
  check_int "down_drops totals" 6 (Link.down_drops to_core);
  (* restore reconverges once more and the fabric is whole again *)
  Fabric.restore_edges fabric failed;
  check_bool "edge live again" true (not edge.Topology.failed)

(* ------------------------ CAFT reweighting ------------------------- *)

let test_caft_capacity_tracks_failures () =
  let c3 = mk_clos3 () in
  let topo = c3.Topology.topo in
  let sched = Scheduler.create () in
  let fabric = Fabric.create ~sched ~config:Fabric.default_config topo in
  let caft = Fabric_lb.Caft.install ~flowlet_gap:(Sim_time.us 500) fabric in
  check_int "one reweight at install" 1 (Fabric_lb.Caft.reweights caft);
  let spine0 = c3.Topology.spine_ids.(0) in
  let remote_leaf = c3.Topology.leaf_ids.(2) in
  (* spine0 owns cores 0 and 2: two 40G uplinks, each behind a core that
     reaches the remote pod *)
  let before =
    Fabric_lb.Caft.capacity_to caft ~node:spine0 ~dst_leaf:remote_leaf
  in
  check_bool "spine has inter-pod capacity" true (before > 0.0);
  let core0 = c3.Topology.core_ids.(0) in
  let edge =
    match Topology.find_edge topo ~a:spine0 ~b:core0 ~bundle_index:0 with
    | Some e -> e
    | None -> Alcotest.fail "no spine-core edge"
  in
  Fabric.fail_edge fabric edge;
  check_int "reconvergence reweighted" 2 (Fabric_lb.Caft.reweights caft);
  let after =
    Fabric_lb.Caft.capacity_to caft ~node:spine0 ~dst_leaf:remote_leaf
  in
  check_bool
    (Printf.sprintf "capacity dropped (%.0fG -> %.0fG)" (before /. 1e9)
       (after /. 1e9))
    true
    (after > 0.0 && after < before);
  Fabric.restore_edge fabric edge;
  let restored =
    Fabric_lb.Caft.capacity_to caft ~node:spine0 ~dst_leaf:remote_leaf
  in
  check_bool "capacity restored" true (restored = before)

(* -------------------- no-black-hole reconvergence ------------------ *)

(* After ANY fail/restore sequence on the 3-tier fabric, programmed
   routes must be coherent: every switch that can still reach a host in
   the live topology holds a non-empty candidate set, every candidate
   port's link is up, and every candidate strictly decreases the BFS
   distance (so packets can neither stall nor loop). *)
let prop_no_black_holes =
  QCheck.Test.make ~name:"3-tier reconvergence leaves no black holes"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 1 25) (int_bound 1000))
    (fun ops ->
      let c3 = mk_clos3 () in
          let topo = c3.Topology.topo in
      let sched = Scheduler.create () in
      let fabric = Fabric.create ~sched ~config:Fabric.default_config topo in
      let fabric_edges =
        List.filter
          (fun (e : Topology.edge) ->
            not
              (Topology.is_host topo e.Topology.a
              || Topology.is_host topo e.Topology.b))
          (Topology.edges topo)
        |> Array.of_list
      in
      let n = Array.length fabric_edges in
      List.iter
        (fun op ->
          let e = fabric_edges.(op mod n) in
          if e.Topology.failed then Fabric.restore_edge fabric e
          else Fabric.fail_edge fabric e)
        ops;
      let ok = ref true in
      Array.iter
        (fun h ->
          let hid = Host.id h in
          let dist = Routing.distances topo ~dst:hid in
          Array.iter
            (fun sw ->
              let sid = Switch.id sw in
              let du = Int_table.find_opt dist sid in
              match Switch.routes sw (Host.addr h) with
              | None -> if du <> None then ok := false (* black hole *)
              | Some ports ->
                if Array.length ports = 0 then ok := false
                else
                  Array.iter
                    (fun p ->
                      let link = Switch.port_link sw p in
                      let peer = Switch.port_peer sw p in
                      if not (Link.up link) then ok := false;
                      match (du, Int_table.find_opt dist peer) with
                      | Some du, Some dp -> if dp <> du - 1 then ok := false
                      | _ -> ok := false)
                    ports)
            (Fabric.switches fabric))
        (Fabric.hosts fabric);
      !ok)

let () =
  Alcotest.run "clos3"
    [
      ( "topology",
        [
          Alcotest.test_case "shape" `Quick test_shape;
          Alcotest.test_case "builder validation" `Quick test_clos_validation;
        ] );
      ( "naming",
        [
          Alcotest.test_case "round-trip" `Quick test_naming_round_trip;
          Alcotest.test_case "one-pod aliases" `Quick test_one_pod_naming;
          Alcotest.test_case "parse-time validation" `Quick
            test_parse_time_validation;
          Alcotest.test_case "tier classification" `Quick
            test_tier_classification;
        ] );
      ( "faults",
        [
          Alcotest.test_case "core switch-down accounting" `Quick
            test_core_switch_down_accounting;
        ] );
      ( "caft",
        [
          Alcotest.test_case "capacity tracks failures" `Quick
            test_caft_capacity_tracks_failures;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_no_black_holes ] );
    ]
