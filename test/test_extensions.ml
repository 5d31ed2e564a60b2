(* Tests for the Section 7 extension features: Clove-Latency, non-overlay
   rewrite mode, receiver reordering for Clove, adaptive flowlet gap, DCTCP
   guests, LetFlow, and Clove on the k = 4 fat-tree, built by the 3-tier
   Clos builder the ext-fattree experiment runs on. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Experiments

let build ?(asymmetric = false) ?(params = Scenario.default_params) scheme =
  Scenario.build ~scheme { params with Scenario.asymmetric; seed = 5 }

let one_transfer ?params scheme ~bytes =
  let scn = build ?params scheme in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let finished = ref false in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      submit ~bytes ~on_complete:(fun () -> finished := true));
  Scheduler.run ~until:(Sim_time.of_ns 300_000_000) sched;
  Scenario.quiesce scn;
  (!finished, scn)

(* ------------------------------ clove-latency --------------------- *)

let test_latency_scheme_delivers () =
  let ok, _ = one_transfer Scenario.S_clove_latency ~bytes:500_000 in
  check_bool "completes" true ok

let test_latency_feedback_populates_table () =
  let scn = build Scenario.S_clove_latency in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      submit ~bytes:2_000_000 ~on_complete:(fun () -> ()));
  Scheduler.run ~until:(Sim_time.of_ns 60_000_000) sched;
  (match Clove.Vswitch.path_table (Scenario.vswitch scn client) (Host.addr server) with
  | Some tbl ->
    let lat = Clove.Path_table.samples tbl in
    check_bool "some latency measured" true (Array.exists (fun d -> d > 0.0) lat)
  | None -> Alcotest.fail "no path table");
  Scenario.quiesce scn

let test_pick_min_latency_unit () =
  let sched = Scheduler.create () in
  let tbl = Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default in
  let hop n p = { Packet.hop_node = n; hop_port = p } in
  Clove.Path_table.install tbl [ (1, [ hop 2 0 ]); (2, [ hop 2 1 ]); (3, [ hop 3 0 ]) ];
  Clove.Path_table.note_sample tbl ~port:1 ~value:90e-6;
  Clove.Path_table.note_sample tbl ~port:2 ~value:30e-6;
  Clove.Path_table.note_sample tbl ~port:3 ~value:60e-6;
  check_int "min latency port" 2 (Clove.Path_table.pick_min_sample tbl);
  check_int "spread 60us" 60_000
    (Sim_time.span_ns (Clove.Path_table.latency_spread tbl))

(* ----------------------------- rewrite mode ----------------------- *)

let test_rewrite_mode_delivers () =
  let params = { Scenario.default_params with Scenario.rewrite_mode = true } in
  let ok, _ = one_transfer ~params Scenario.S_clove_ecn ~bytes:300_000 in
  check_bool "non-overlay rewrite mode completes" true ok

let test_rewrite_mode_less_overhead () =
  (* same transfer, fewer wire bytes: rewrite adds 12B vs 58B per packet *)
  let wire_bytes params =
    let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
    let sched = Scenario.sched scn in
    let client = (Scenario.clients scn).(0) in
    let server = (Scenario.servers scn).(0) in
    let submit = Scenario.connect scn ~src:client ~dst:server in
    Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
        submit ~bytes:300_000 ~on_complete:(fun () -> ()));
    Scheduler.run ~until:(Sim_time.of_ns 100_000_000) sched;
    let bytes = Link.tx_bytes (Host.uplink client) in
    Scenario.quiesce scn;
    bytes
  in
  let overlay = wire_bytes { Scenario.default_params with seed = 5 } in
  let rewrite =
    wire_bytes { Scenario.default_params with seed = 5; rewrite_mode = true }
  in
  check_bool
    (Printf.sprintf "rewrite (%d B) < overlay (%d B)" rewrite overlay)
    true (rewrite < overlay)

(* --------------------------- clove reordering ---------------------- *)

let test_clove_reorder_delivers_in_order () =
  (* per-packet spraying (tiny gap) + receiver reordering: the guest TCP
     must see no out-of-order segments at all *)
  let params =
    {
      Scenario.default_params with
      Scenario.clove_reorder = true;
      flowlet_gap = Some (Sim_time.ns 100);
    }
  in
  let scn = build ~params Scenario.S_clove_ecn in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let finished = ref false in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      submit ~bytes:1_000_000 ~on_complete:(fun () -> finished := true));
  Scheduler.run ~until:(Sim_time.of_ns 300_000_000) sched;
  check_bool "completes under per-packet spraying" true !finished;
  Scenario.quiesce scn

(* ------------------------------ dctcp ----------------------------- *)

let test_dctcp_guests_deliver () =
  let params = { Scenario.default_params with Scenario.guest_dctcp = true } in
  let ok, _ = one_transfer ~params Scenario.S_clove_ecn ~bytes:500_000 in
  check_bool "dctcp guests complete" true ok

let test_dctcp_gentler_than_reno_cut () =
  (* DCTCP's alpha starts at 1 and each unmarked window scales it by
     (1 - g), g = 1/16; its ECN cut is then alpha / 2, where Reno halves *)
  let sched = Scheduler.create () in
  let mk dctcp =
    Transport.Tcp.create_sender ~sched ~dctcp ~conn_id:1 ~src:(Addr.of_int 0)
      ~dst:(Addr.of_int 1) ~src_port:1 ~dst_port:2
      ~tx:(fun _ -> ())
      ()
  in
  let ack s n =
    Transport.Tcp.on_ack s
      {
        Packet.conn_id = 1;
        subflow = 0;
        src_port = 2;
        dst_port = 1;
        seq = 0;
        ack = n;
        kind = Packet.Ack;
        payload = 0;
        ece = false;
      }
  in
  let windows = 16 in
  (* one segment per window: its unmarked ACK closes the window *)
  let drive s =
    for i = 1 to windows do
      Transport.Tcp.send s ~bytes:Transport.Tcp.mss ~on_complete:(fun () -> ());
      ack s (i * Transport.Tcp.mss)
    done
  in
  let cut s =
    let w = Transport.Tcp.cwnd_pkts s in
    Transport.Tcp.ecn_signal s;
    1.0 -. (Transport.Tcp.cwnd_pkts s /. w)
  in
  let reno = mk false and dctcp = mk true in
  drive reno;
  drive dctcp;
  let g = 1.0 /. 16.0 in
  let alpha = ref 1.0 in
  for _ = 1 to windows do
    alpha := (1.0 -. g) *. !alpha
  done;
  let dctcp_cut = cut dctcp and reno_cut = cut reno in
  Alcotest.(check (float 1e-9)) "dctcp cut = alpha / 2" (!alpha /. 2.0) dctcp_cut;
  Alcotest.(check (float 1e-9)) "reno halves" 0.5 reno_cut;
  check_bool
    (Printf.sprintf "dctcp cut (%.3f) < reno cut (%.3f)" dctcp_cut reno_cut)
    true (dctcp_cut < reno_cut);
  Transport.Tcp.stop reno;
  Transport.Tcp.stop dctcp

(* ------------------------------ letflow ---------------------------- *)

let test_letflow_delivers () =
  let ok, _ = one_transfer Scenario.S_letflow ~bytes:500_000 in
  check_bool "letflow completes" true ok

let test_letflow_uses_multiple_paths () =
  let scn = build Scenario.S_letflow in
  let sched = Scenario.sched scn in
  let clients = Scenario.clients scn in
  let servers = Scenario.servers scn in
  Array.iteri
    (fun i c ->
      let submit = Scenario.connect scn ~src:c ~dst:servers.(i) in
      Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
          submit ~bytes:2_000_000 ~on_complete:(fun () -> ())))
    clients;
  Scheduler.run ~until:(Sim_time.of_ns 50_000_000) sched;
  (* both spines carried traffic *)
  Array.iter
    (fun sw ->
      if Switch.level sw = Switch.Spine then
        check_bool "spine used" true (Switch.rx_packets sw > 100))
    (Fabric.switches (Scenario.fabric scn));
  Scenario.quiesce scn

(* ------------------------------ fat-tree --------------------------- *)

(* the k = 4 fat-tree graph as the Clos builder lays it out: 4
   pods of 2 leaves (edge switches) and 2 spines (aggregation switches),
   4 cores, 2 hosts per leaf, one link per hop; core k homes on spine
   (k mod 2) of every pod *)
let fat_tree () =
  Topology.clos ~pods:4 ~leaves_per_pod:2 ~spines_per_pod:2 ~cores:4
    ~hosts_per_leaf:2 ~parallel:1 ~host_rate_bps:10e9 ~fabric_rate_bps:10e9
    ~core_rate_bps:10e9 ~delay:(Sim_time.us 2)

(* host node ids of pod [pod]: its two leaves' hosts *)
let pod_hosts c pod =
  Array.append c.Topology.host_ids.(2 * pod) c.Topology.host_ids.((2 * pod) + 1)

let test_fat_tree_shape () =
  let c = fat_tree () in
  let topo = c.Topology.topo in
  (* k=4: 16 hosts, 8 edge, 8 agg, 4 core = 36 nodes *)
  check_int "node count" 36 (Topology.node_count topo);
  check_int "hosts per pod" 4 (Array.length (pod_hosts c 0));
  check_int "cores" 4 (Array.length c.Topology.core_ids);
  (* edges: 16 host links + 4 pods x 4 edge-agg + 4 pods x 4 agg-core *)
  check_int "edge count" (16 + 16 + 16) (List.length (Topology.edges topo))

let test_fat_tree_routing_multipath () =
  let c = fat_tree () in
  let dst = (pod_hosts c 3).(0) in
  let nh = Routing.next_hops c.Topology.topo ~dst in
  (* an edge switch in pod 0 has both aggs as next hops toward pod 3 *)
  let hops = Int_table.find_default nh c.Topology.leaf_ids.(0) [] in
  check_int "two agg next-hops" 2 (List.length hops);
  (* an agg in pod 0 has both its cores as next hops *)
  let hops = Int_table.find_default nh c.Topology.spine_ids.(0) [] in
  check_int "two core next-hops" 2 (List.length hops)

let test_fat_tree_end_to_end_clove () =
  (* cross-pod transfer under Clove-ECN on the 3-tier topology, with path
     discovery finding 5-hop paths *)
  let sched = Scheduler.create () in
  let c = fat_tree () in
  let fabric = Fabric.create ~sched ~config:Fabric.default_config c.Topology.topo in
  Fabric.program_routes fabric;
  let cfg = Clove.Clove_config.with_rtt (Sim_time.us 60) in
  let rng = Rng.create 3 in
  let stacks = Hashtbl.create 32 in
  let mk_host node_id =
    let host = Fabric.host_by_addr fabric (Addr.of_int node_id) in
    let st = Transport.Stack.create () in
    Hashtbl.replace stacks node_id st;
    let v =
      Clove.Vswitch.create ~route_epoch:(fun () -> 0) ~host ~stack:st ~scheme:Clove.Vswitch.Clove_ecn ~cfg
        ~rng:(Rng.split_named rng (string_of_int node_id)) ()
    in
    (host, st, v)
  in
  let src, src_stack, v_src = mk_host (pod_hosts c 0).(0) in
  let dst, dst_stack, v_dst = mk_host (pod_hosts c 3).(0) in
  let sender =
    Transport.Tcp.create_sender ~sched ~dctcp:false ~conn_id:1 ~src:(Host.addr src)
      ~dst:(Host.addr dst) ~src_port:1000 ~dst_port:80
      ~tx:(fun pkt -> Clove.Vswitch.tx v_src pkt)
      ()
  in
  Transport.Stack.register_sender src_stack sender;
  let receiver =
    Transport.Tcp.create_receiver ~conn_id:1 ~addr:(Host.addr dst)
      ~peer:(Host.addr src) ~src_port:80 ~dst_port:1000
      ~tx:(fun pkt -> Clove.Vswitch.tx v_dst pkt)
      ()
  in
  Transport.Stack.register_receiver dst_stack receiver;
  Clove.Vswitch.add_destination v_src (Host.addr dst);
  let finished = ref false in
  Scheduler.schedule sched ~after:(Sim_time.ms 15) (fun () ->
      Transport.Tcp.send sender ~bytes:500_000 ~on_complete:(fun () ->
          finished := true));
  Scheduler.run ~until:(Sim_time.of_ns 100_000_000) sched;
  check_bool "cross-pod transfer completes" true !finished;
  (match Clove.Vswitch.path_table v_src (Host.addr dst) with
  | Some tbl ->
    check_int "four disjoint cross-pod paths" 4 (Clove.Path_table.port_count tbl);
    Array.iter
      (fun p -> check_int "5 switch hops" 5 (List.length p))
      (Clove.Path_table.paths tbl)
  | None -> Alcotest.fail "no paths discovered on fat-tree");
  Clove.Vswitch.stop v_src;
  Clove.Vswitch.stop v_dst;
  Transport.Stack.stop_all src_stack

(* --------------------------- failure timeline ---------------------- *)

let test_timeline_buckets () =
  let s = Workload.Fct_stats.create () in
  let at ms = Sim_time.add Sim_time.zero (Sim_time.ms ms) in
  Workload.Fct_stats.record s ~size:1 ~start:(at 5) ~finish:(at 6);
  Workload.Fct_stats.record s ~size:1 ~start:(at 15) ~finish:(at 18);
  Workload.Fct_stats.record s ~size:1 ~start:(at 16) ~finish:(at 17);
  let tl = Workload.Fct_stats.timeline s ~bucket_sec:0.01 in
  check_int "two buckets" 2 (List.length tl);
  match tl with
  | [ (t0, s0); (t1, s1) ] ->
    Alcotest.(check (float 1e-9)) "bucket 0 at 0" 0.0 t0;
    Alcotest.(check (float 1e-9)) "bucket 1 at 10ms" 0.01 t1;
    (* the first bucket holds the 1 ms flow, the second the 3 ms and
       1 ms flows *)
    Alcotest.(check (float 1e-9)) "one sample then two" 0.001 (Stats.Summary.mean s0);
    Alcotest.(check (float 1e-9)) "two in second" 0.002 (Stats.Summary.mean s1)
  | _ -> Alcotest.fail "unexpected buckets"

let () =
  Alcotest.run "extensions"
    [
      ( "clove-latency",
        [
          Alcotest.test_case "delivers" `Quick test_latency_scheme_delivers;
          Alcotest.test_case "feedback populates table" `Quick
            test_latency_feedback_populates_table;
          Alcotest.test_case "pick min latency" `Quick test_pick_min_latency_unit;
        ] );
      ( "rewrite-mode",
        [
          Alcotest.test_case "delivers" `Quick test_rewrite_mode_delivers;
          Alcotest.test_case "less overhead" `Quick test_rewrite_mode_less_overhead;
        ] );
      ( "clove-reorder",
        [ Alcotest.test_case "per-packet spraying ok" `Quick test_clove_reorder_delivers_in_order ] );
      ( "dctcp",
        [
          Alcotest.test_case "delivers" `Quick test_dctcp_guests_deliver;
          Alcotest.test_case "gentler cut" `Quick test_dctcp_gentler_than_reno_cut;
        ] );
      ( "letflow",
        [
          Alcotest.test_case "delivers" `Quick test_letflow_delivers;
          Alcotest.test_case "uses multiple paths" `Quick test_letflow_uses_multiple_paths;
        ] );
      ( "fat-tree",
        [
          Alcotest.test_case "shape" `Quick test_fat_tree_shape;
          Alcotest.test_case "multipath routing" `Quick test_fat_tree_routing_multipath;
          Alcotest.test_case "clove end to end" `Quick test_fat_tree_end_to_end_clove;
        ] );
      ( "timeline",
        [ Alcotest.test_case "buckets" `Quick test_timeline_buckets ] );
    ]
