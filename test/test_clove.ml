(* Unit tests for the Clove core: flowlet detection, weighted round robin,
   path selection, path tables, traceroute discovery, Presto reassembly,
   and the virtual-switch feedback machinery. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Clove.Clove_config.default

(* -------------------------------- Flowlet ------------------------- *)

let test_flowlet_gap_detection () =
  let sched = Scheduler.create () in
  let t = Clove.Flowlet.create ~sched ~gap:(Sim_time.us 10) ~dummy:0 in
  let picks = ref 0 in
  let pick ~flowlet_id =
    incr picks;
    flowlet_id
  in
  let d0 = Clove.Flowlet.touch t ~key:1 ~pick in
  check_int "first packet opens flowlet 0" 0 d0;
  (* a packet within the gap keeps the decision *)
  Scheduler.schedule sched ~after:(Sim_time.us 5) (fun () ->
      check_int "same flowlet" 0 (Clove.Flowlet.touch t ~key:1 ~pick));
  Scheduler.run sched;
  (* after an idle gap a new flowlet opens *)
  Scheduler.schedule sched ~after:(Sim_time.us 20) (fun () ->
      check_int "new flowlet" 1 (Clove.Flowlet.touch t ~key:1 ~pick));
  Scheduler.run sched;
  check_int "two picks" 2 !picks;
  check_int "flowlets counted" 2 (Clove.Flowlet.flowlets_started t)

let test_flowlet_keys_independent () =
  let sched = Scheduler.create () in
  let t = Clove.Flowlet.create ~sched ~gap:(Sim_time.us 10) ~dummy:0 in
  ignore (Clove.Flowlet.touch t ~key:1 ~pick:(fun ~flowlet_id -> flowlet_id));
  ignore (Clove.Flowlet.touch t ~key:2 ~pick:(fun ~flowlet_id -> flowlet_id + 100));
  check_int "two flows tracked" 2 (Clove.Flowlet.flows_tracked t);
  Alcotest.(check (option int))
    "flow 2 decision" (Some 100)
    (Clove.Flowlet.active_flowlet t ~key:2)

let test_flowlet_gap_boundary () =
  (* a packet at exactly the gap must open a new flowlet (>= semantics) *)
  let sched = Scheduler.create () in
  let t = Clove.Flowlet.create ~sched ~gap:(Sim_time.us 10) ~dummy:0 in
  ignore (Clove.Flowlet.touch t ~key:1 ~pick:(fun ~flowlet_id -> flowlet_id));
  Scheduler.schedule sched ~after:(Sim_time.us 10) (fun () ->
      check_int "boundary opens new" 1
        (Clove.Flowlet.touch t ~key:1 ~pick:(fun ~flowlet_id -> flowlet_id)));
  Scheduler.run sched

let test_flowlet_expiry () =
  let sched = Scheduler.create () in
  let t = Clove.Flowlet.create ~sched ~gap:(Sim_time.us 10) ~dummy:0 in
  ignore (Clove.Flowlet.touch t ~key:1 ~pick:(fun ~flowlet_id -> flowlet_id));
  Scheduler.schedule sched ~after:(Sim_time.ms 5) (fun () ->
      Clove.Flowlet.expire_older_than t (Sim_time.ms 1);
      check_int "expired" 0 (Clove.Flowlet.flows_tracked t));
  Scheduler.run sched

(* ---------------------------------- Wrr --------------------------- *)

let test_wrr_proportions () =
  let w = Clove.Wrr.create ~weights:[| 1.0; 2.0; 1.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 4000 do
    let i = Clove.Wrr.pick w in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "item 0 quarter" 1000 counts.(0);
  check_int "item 1 half" 2000 counts.(1);
  check_int "item 2 quarter" 1000 counts.(2)

let test_wrr_zero_weight_starves () =
  let w = Clove.Wrr.create ~weights:[| 1.0; 1.0 |] in
  Clove.Wrr.set_weight w 0 0.0;
  for _ = 1 to 100 do
    check_int "only index 1" 1 (Clove.Wrr.pick w)
  done

let test_wrr_smoothness () =
  (* weights 3:1 -> the light item appears spread out, not clumped *)
  let w = Clove.Wrr.create ~weights:[| 3.0; 1.0 |] in
  let seq = List.init 8 (fun _ -> Clove.Wrr.pick w) in
  check_int "item1 twice in 8" 2 (List.length (List.filter (fun i -> i = 1) seq))

let test_wrr_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Wrr.create: empty") (fun () ->
      ignore (Clove.Wrr.create ~weights:[||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Wrr.create: non-positive total weight") (fun () ->
      ignore (Clove.Wrr.create ~weights:[| 0.0; 0.0 |]))

let prop_wrr_follows_weights =
  QCheck.Test.make ~name:"wrr frequencies proportional to weights" ~count:50
    QCheck.(list_of_size Gen.(int_range 2 6) (int_range 1 9))
    (fun ws ->
      let weights = Array.of_list (List.map float_of_int ws) in
      let w = Clove.Wrr.create ~weights in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let rounds = 120 in
      let n = int_of_float (float_of_int rounds *. total) in
      let counts = Array.make (Array.length weights) 0 in
      for _ = 1 to n do
        let i = Clove.Wrr.pick w in
        counts.(i) <- counts.(i) + 1
      done;
      Array.for_all (fun x -> x)
        (Array.mapi (fun i c -> c = rounds * int_of_float weights.(i)) counts))

(* ------------------------------- Clove_path ----------------------- *)

let hop node port = { Packet.hop_node = node; hop_port = port }

let test_path_signature_and_equal () =
  let p1 = [ hop 1 0; hop 2 1 ] and p2 = [ hop 1 0; hop 2 1 ] in
  let p3 = [ hop 1 0; hop 2 2 ] in
  check_int "equal paths, same signature" (Clove.Clove_path.signature p1)
    (Clove.Clove_path.signature p2);
  check_bool "different path, different signature" true
    (Clove.Clove_path.signature p1 <> Clove.Clove_path.signature p3)

let test_select_disjoint_prefers_disjoint () =
  (* three candidates: a and a' share their final link (same destination
     ingress interface), b is fully disjoint past the first hop; k=2 must
     pick one of {a, a'} plus b, never a with a' *)
  let a = (50001, [ hop 0 0; hop 10 0; hop 1 0 ]) in
  let a' = (50002, [ hop 0 0; hop 10 1; hop 1 0 ]) in
  let b = (50003, [ hop 0 0; hop 20 0; hop 1 2 ]) in
  let picked = Clove.Clove_path.select_disjoint ~k:2 [ a; a'; b ] in
  check_int "picked 2" 2 (List.length picked);
  let ports = List.map fst picked |> List.sort compare in
  check_bool "b is included" true (List.mem 50003 ports);
  check_bool "not both bottleneck-sharing paths" false
    (List.mem 50001 ports && List.mem 50002 ports)

let test_select_disjoint_dedupes () =
  let p = [ hop 0 0; hop 10 0 ] in
  let picked =
    Clove.Clove_path.select_disjoint ~k:4 [ (50002, p); (50001, p); (50003, p) ]
  in
  check_int "duplicates collapsed" 1 (List.length picked);
  check_int "lowest port kept" 50001 (fst (List.hd picked))

let test_select_disjoint_k_limit () =
  let cands = List.init 10 (fun i -> (50000 + i, [ hop 0 0; hop (10 + i) 0 ])) in
  check_int "at most k" 4 (List.length (Clove.Clove_path.select_disjoint ~k:4 cands));
  check_int "k=0 empty" 0 (List.length (Clove.Clove_path.select_disjoint ~k:0 cands))

(* ------------------------------- Path_table ----------------------- *)

let mk_table () =
  let sched = Scheduler.create () in
  let t = Clove.Path_table.create ~sched ~cfg in
  Clove.Path_table.install t
    [
      (50001, [ hop 2 0 ]);
      (50002, [ hop 2 1 ]);
      (50003, [ hop 3 0 ]);
      (50004, [ hop 3 1 ]);
    ];
  (sched, t)

let test_path_table_wrr_uniform () =
  let _, t = mk_table () in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 400 do
    let p = Clove.Path_table.pick_wrr t in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  Hashtbl.iter (fun _ c -> check_int "uniform 100 each" 100 c) counts

let test_path_table_congestion_shifts_weight () =
  let _, t = mk_table () in
  Clove.Path_table.note_congested t ~port:50001;
  let w = Clove.Path_table.weights t in
  check_bool "congested lighter" true (w.(0) < 0.25);
  check_bool "others heavier" true (w.(1) > 0.25 && w.(2) > 0.25 && w.(3) > 0.25);
  Alcotest.(check (float 1e-6)) "weights normalized" 1.0 (Array.fold_left ( +. ) 0.0 w)

let test_path_table_unknown_port_ignored () =
  let _, t = mk_table () in
  Clove.Path_table.note_congested t ~port:60000;
  Alcotest.(check (float 1e-6)) "unchanged" 0.25 (Clove.Path_table.weights t).(0)

let test_path_table_least_utilized () =
  let _, t = mk_table () in
  Clove.Path_table.note_sample t ~port:50001 ~value:0.9;
  Clove.Path_table.note_sample t ~port:50002 ~value:0.4;
  Clove.Path_table.note_sample t ~port:50003 ~value:0.1;
  Clove.Path_table.note_sample t ~port:50004 ~value:0.7;
  check_int "least utilized" 50003 (Clove.Path_table.pick_min_sample t)

let test_path_table_all_congested () =
  let _, t = mk_table () in
  check_bool "not initially" false (Clove.Path_table.all_congested t);
  List.iter
    (fun port -> Clove.Path_table.note_congested t ~port)
    [ 50001; 50002; 50003; 50004 ];
  check_bool "all congested" true (Clove.Path_table.all_congested t)

let test_path_table_state_survives_remap () =
  let _, t = mk_table () in
  Clove.Path_table.note_sample t ~port:50001 ~value:0.9;
  (* rediscovery: the same physical path now maps to a different port *)
  Clove.Path_table.install t [ (51111, [ hop 2 0 ]); (50003, [ hop 3 0 ]) ];
  let utils = Clove.Path_table.samples t in
  let ports = Clove.Path_table.ports t in
  let idx = ref (-1) in
  Array.iteri (fun i p -> if p = 51111 then idx := i) ports;
  check_bool "found port" true (!idx >= 0);
  Alcotest.(check (float 1e-9)) "utilization carried over" 0.9 utils.(!idx)

let test_path_table_weight_floor () =
  let _, t = mk_table () in
  for _ = 1 to 50 do
    Clove.Path_table.note_congested t ~port:50001
  done;
  let w = Clove.Path_table.weights t in
  check_bool "never zero" true (w.(0) > 0.0)

(* ------------------------------ Traceroute ------------------------ *)

let build_scenario ?(asymmetric = false) scheme =
  let params = { Experiments.Scenario.default_params with asymmetric; seed = 5 } in
  Experiments.Scenario.build ~scheme params

let test_traceroute_discovers_four_disjoint () =
  let scn = build_scenario Experiments.Scenario.S_clove_ecn in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  let v = Experiments.Scenario.vswitch scn client in
  Clove.Vswitch.add_destination v (Host.addr server);
  Scheduler.run
    ~until:(Sim_time.of_ns (Sim_time.span_ns (Sim_time.ms 15)))
    (Experiments.Scenario.sched scn);
  (match Clove.Vswitch.path_table v (Host.addr server) with
  | None -> Alcotest.fail "no paths discovered"
  | Some tbl ->
    check_int "four distinct paths" 4 (Clove.Path_table.port_count tbl);
    let paths = Clove.Path_table.paths tbl in
    Array.iter (fun p -> check_int "3 hops" 3 (List.length p)) paths;
    Array.iteri
      (fun i p ->
        Array.iteri
          (fun j q ->
            if i < j then
              check_bool "pairwise distinct" false (p = q))
          paths)
      paths);
  Experiments.Scenario.quiesce scn

let test_traceroute_survives_failure () =
  let scn = build_scenario Experiments.Scenario.S_clove_ecn in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  let v = Experiments.Scenario.vswitch scn client in
  Clove.Vswitch.add_destination v (Host.addr server);
  let sched = Experiments.Scenario.sched scn in
  Scheduler.run ~until:(Sim_time.of_ns (Sim_time.span_ns (Sim_time.ms 15))) sched;
  (* fail one fabric link, wait for the next probe cycle *)
  let topo = Fabric.topology (Experiments.Scenario.fabric scn) in
  let fabric = Experiments.Scenario.fabric scn in
  let edge =
    List.find
      (fun (e : Topology.edge) ->
        (not (Topology.is_host topo e.Topology.a))
        && not (Topology.is_host topo e.Topology.b))
      (Topology.edges topo)
  in
  Fabric.fail_edge fabric edge;
  Scheduler.run ~until:(Sim_time.of_ns (Sim_time.span_ns (Sim_time.ms 540))) sched;
  (match Clove.Vswitch.path_table v (Host.addr server) with
  | None -> Alcotest.fail "paths lost after failure"
  | Some tbl -> check_bool "still has paths" true (Clove.Path_table.port_count tbl >= 3));
  Experiments.Scenario.quiesce scn

(* ------------------------------- Presto_rx ------------------------ *)

let mk_inner seq =
  {
    Packet.src = Addr.of_int 0;
    dst = Addr.of_int 1;
    inner_ecn = Packet.Not_ect;
    seg =
      {
        Packet.conn_id = 1;
        subflow = 0;
        src_port = 1;
        dst_port = 2;
        seq;
        ack = 0;
        kind = Packet.Data;
        payload = 100;
        ece = false;
      };
  }

let test_presto_rx_in_order_passthrough () =
  let sched = Scheduler.create () in
  let out = ref [] in
  let rx =
    Clove.Presto_rx.create ~sched ~cfg ~deliver:(fun i ->
        out := i.Packet.seg.Packet.seq :: !out)
  in
  for i = 0 to 4 do
    Clove.Presto_rx.on_packet rx (mk_inner i)
      ~cell:{ Packet.flow_key = 7; cell_id = 0; cell_seq = i }
  done;
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !out);
  check_int "nothing buffered" 0 (Clove.Presto_rx.buffered rx)

let test_presto_rx_reorders () =
  let sched = Scheduler.create () in
  let out = ref [] in
  let rx =
    Clove.Presto_rx.create ~sched ~cfg ~deliver:(fun i ->
        out := i.Packet.seg.Packet.seq :: !out)
  in
  let deliver seq cseq =
    Clove.Presto_rx.on_packet rx (mk_inner seq)
      ~cell:{ Packet.flow_key = 7; cell_id = 0; cell_seq = cseq }
  in
  deliver 0 0;
  deliver 2 2;
  deliver 3 3;
  check_int "buffered two" 2 (Clove.Presto_rx.buffered rx);
  Alcotest.(check (list int)) "only first delivered" [ 0 ] (List.rev !out);
  deliver 1 1;
  Alcotest.(check (list int)) "drained in order" [ 0; 1; 2; 3 ] (List.rev !out);
  check_int "reordered counted" 2 (Clove.Presto_rx.reordered rx)

let test_presto_rx_timeout_flush () =
  let sched = Scheduler.create () in
  let out = ref [] in
  let rx =
    Clove.Presto_rx.create ~sched ~cfg ~deliver:(fun i ->
        out := i.Packet.seg.Packet.seq :: !out)
  in
  let deliver seq cseq =
    Clove.Presto_rx.on_packet rx (mk_inner seq)
      ~cell:{ Packet.flow_key = 7; cell_id = 0; cell_seq = cseq }
  in
  deliver 0 0;
  deliver 2 2 (* hole at 1; packet 1 was lost *);
  Scheduler.run sched (* reorder timeout fires *);
  Alcotest.(check (list int)) "flushed after timeout" [ 0; 2 ] (List.rev !out);
  check_int "flush counted" 1 (Clove.Presto_rx.timeout_flushes rx);
  deliver 1 1;
  Alcotest.(check (list int)) "late packet delivered" [ 0; 2; 1 ] (List.rev !out)

let test_presto_rx_flows_isolated () =
  let sched = Scheduler.create () in
  let out = ref 0 in
  let rx = Clove.Presto_rx.create ~sched ~cfg ~deliver:(fun _ -> incr out) in
  Clove.Presto_rx.on_packet rx (mk_inner 5)
    ~cell:{ Packet.flow_key = 1; cell_id = 0; cell_seq = 5 };
  Clove.Presto_rx.on_packet rx (mk_inner 0)
    ~cell:{ Packet.flow_key = 2; cell_id = 0; cell_seq = 0 };
  check_int "flow B delivered" 1 !out

(* -------------------------------- Vswitch ------------------------- *)

let test_vswitch_end_to_end_per_scheme () =
  (* every dataplane must deliver a transfer end to end *)
  List.iter
    (fun scheme ->
      let scn = build_scenario scheme in
      let sched = Experiments.Scenario.sched scn in
      let client = (Experiments.Scenario.clients scn).(0) in
      let server = (Experiments.Scenario.servers scn).(0) in
      let submit = Experiments.Scenario.connect scn ~src:client ~dst:server in
      let finished = ref false in
      Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
          submit ~bytes:200_000 ~on_complete:(fun () -> finished := true));
      Scheduler.run ~until:(Sim_time.of_ns 200_000_000) sched;
      Alcotest.(check bool)
        (Experiments.Scenario.scheme_name scheme ^ " completes")
        true !finished;
      Experiments.Scenario.quiesce scn)
    Experiments.Scenario.
      [ S_ecmp; S_edge_flowlet; S_clove_ecn; S_clove_int; S_presto; S_mptcp; S_conga ]

let test_vswitch_ecn_feedback_loop () =
  (* under sustained congestion on the asymmetric fabric, Clove-ECN
     feedback must reach the senders' vswitches and shift weights away
     from congested ports *)
  let scn = build_scenario ~asymmetric:true Experiments.Scenario.S_clove_ecn in
  let sched = Experiments.Scenario.sched scn in
  let clients = Experiments.Scenario.clients scn in
  let server = (Experiments.Scenario.servers scn).(0) in
  let submits =
    Array.map (fun c -> Experiments.Scenario.connect scn ~src:c ~dst:server) clients
  in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      Array.iter
        (fun submit -> submit ~bytes:3_000_000 ~on_complete:(fun () -> ()))
        submits);
  Scheduler.run ~until:(Sim_time.of_ns 80_000_000) sched;
  (* at least one client's vswitch has seen feedback and skewed weights *)
  let any_feedback = ref false and any_skew = ref false in
  Array.iter
    (fun c ->
      let v = Experiments.Scenario.vswitch scn c in
      let stats = Clove.Vswitch.stats v in
      if stats.Clove.Vswitch.congestion_feedback_seen > 0 then any_feedback := true;
      match Clove.Vswitch.path_table v (Host.addr server) with
      | Some tbl ->
        let w = Clove.Path_table.weights tbl in
        let spread =
          Array.fold_left Float.max 0.0 w -. Array.fold_left Float.min 1.0 w
        in
        if spread > 0.01 then any_skew := true
      | None -> ())
    clients;
  check_bool "congestion feedback arrived" true !any_feedback;
  check_bool "weights adapted" true !any_skew;
  Experiments.Scenario.quiesce scn

let test_vswitch_feedback_carrier_when_no_reverse_traffic () =
  (* if the receiver has no reverse traffic to piggyback on, it must send a
     dedicated carrier packet within the deadline *)
  let scn = build_scenario Experiments.Scenario.S_clove_ecn in
  let sched = Experiments.Scenario.sched scn in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  let seg =
    {
      Packet.conn_id = 999;
      subflow = 0;
      src_port = 1;
      dst_port = 2;
      seq = 0;
      ack = 0;
      kind = Packet.Data;
      payload = 100;
      ece = false;
    }
  in
  let pkt = Packet.make_tenant ~src:(Host.addr client) ~dst:(Host.addr server) ~seg in
  pkt.Packet.encap <-
    Some
      {
        Packet.src_hv = Host.addr client;
        dst_hv = Host.addr server;
        src_port = 55555;
        dst_port = Packet.stt_port;
        feedback = None;
        cell = None;
      };
  pkt.Packet.ecn <- Packet.Ce;
  Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () -> Host.deliver server pkt);
  Scheduler.run ~until:(Sim_time.of_ns 10_000_000) sched;
  let stats = Clove.Vswitch.stats (Experiments.Scenario.vswitch scn server) in
  check_bool "carrier sent" true (stats.Clove.Vswitch.feedback_carriers >= 1);
  Experiments.Scenario.quiesce scn

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "clove"
    [
      ( "flowlet",
        [
          Alcotest.test_case "gap detection" `Quick test_flowlet_gap_detection;
          Alcotest.test_case "keys independent" `Quick test_flowlet_keys_independent;
          Alcotest.test_case "gap boundary" `Quick test_flowlet_gap_boundary;
          Alcotest.test_case "expiry" `Quick test_flowlet_expiry;
        ] );
      ( "wrr",
        [
          Alcotest.test_case "proportions" `Quick test_wrr_proportions;
          Alcotest.test_case "zero weight starves" `Quick test_wrr_zero_weight_starves;
          Alcotest.test_case "smooth interleaving" `Quick test_wrr_smoothness;
          Alcotest.test_case "invalid input" `Quick test_wrr_invalid;
          qc prop_wrr_follows_weights;
        ] );
      ( "path",
        [
          Alcotest.test_case "signature and equality" `Quick test_path_signature_and_equal;
          Alcotest.test_case "disjoint preference" `Quick test_select_disjoint_prefers_disjoint;
          Alcotest.test_case "dedupe" `Quick test_select_disjoint_dedupes;
          Alcotest.test_case "k limit" `Quick test_select_disjoint_k_limit;
        ] );
      ( "path_table",
        [
          Alcotest.test_case "wrr uniform" `Quick test_path_table_wrr_uniform;
          Alcotest.test_case "congestion shifts weight" `Quick
            test_path_table_congestion_shifts_weight;
          Alcotest.test_case "unknown port ignored" `Quick test_path_table_unknown_port_ignored;
          Alcotest.test_case "least utilized" `Quick test_path_table_least_utilized;
          Alcotest.test_case "all congested" `Quick test_path_table_all_congested;
          Alcotest.test_case "state survives remap" `Quick test_path_table_state_survives_remap;
          Alcotest.test_case "weight floor" `Quick test_path_table_weight_floor;
        ] );
      ( "traceroute",
        [
          Alcotest.test_case "discovers four disjoint paths" `Quick
            test_traceroute_discovers_four_disjoint;
          Alcotest.test_case "survives link failure" `Quick test_traceroute_survives_failure;
        ] );
      ( "presto_rx",
        [
          Alcotest.test_case "in-order passthrough" `Quick test_presto_rx_in_order_passthrough;
          Alcotest.test_case "reorders" `Quick test_presto_rx_reorders;
          Alcotest.test_case "timeout flush" `Quick test_presto_rx_timeout_flush;
          Alcotest.test_case "flows isolated" `Quick test_presto_rx_flows_isolated;
        ] );
      ( "vswitch",
        [
          Alcotest.test_case "every scheme end to end" `Slow test_vswitch_end_to_end_per_scheme;
          Alcotest.test_case "ecn feedback loop" `Slow test_vswitch_ecn_feedback_loop;
          Alcotest.test_case "feedback carrier" `Quick
            test_vswitch_feedback_carrier_when_no_reverse_traffic;
        ] );
    ]
