(* Breadth coverage: smaller behaviours and error paths across all
   libraries that the focused suites do not exercise. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let feq = Alcotest.(check (float 1e-9))

(* ------------------------------- engine ---------------------------- *)

let test_rng_split_named_differs_by_name () =
  let a = Rng.create 7 in
  let x = Rng.split_named a "alpha" and y = Rng.split_named a "beta" in
  check_bool "different streams" true (Rng.int x 1_000_000 <> Rng.int y 1_000_000)

let test_scheduler_armed () =
  let s = Scheduler.create () in
  let tm = Scheduler.timer s ~arg:0 ignore in
  check_bool "disarmed when made" false (Scheduler.armed s tm);
  Scheduler.arm s tm ~after:(Sim_time.us 1);
  check_bool "armed before" true (Scheduler.armed s tm);
  Scheduler.run s;
  check_bool "not armed after" false (Scheduler.armed s tm)

let test_scheduler_pending_count () =
  let s = Scheduler.create () in
  for i = 1 to 4 do
    Scheduler.schedule s ~after:(Sim_time.us i) (fun () -> ())
  done;
  check_int "four pending" 4 (Scheduler.pending_events s)

(* -------------------------------- stats ---------------------------- *)

let test_summary_invalid_percentile () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 1.0;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Summary.percentile: p out of range") (fun () ->
      ignore (Stats.Summary.percentile s 150.0))

let test_table_float_formatting () =
  let t = Stats.Table.create ~header:[ "x"; "v" ] in
  Stats.Table.add_float_row t ~label:"r" [ 2.0 ];
  check_bool "integers render clean" true
    (let s = Stats.Table.csv t in
     s = "x,v\nr,2\n")

(* -------------------------------- netsim --------------------------- *)

let test_addr_basics () =
  let a = Addr.of_int 3 in
  check_bool "equal" true (Addr.equal a (Addr.of_int 3));
  check_bool "pp" true (Format.asprintf "%a" Addr.pp a = "h3");
  Alcotest.check_raises "negative" (Invalid_argument "Addr.of_int: negative") (fun () ->
      ignore (Addr.of_int (-1)))

let mk_seg () =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 10;
    dst_port = 20;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload = 100;
    ece = false;
  }

let test_ecmp_select_single () =
  let pkt = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:(mk_seg ()) in
  check_int "n=1 always 0" 0 (Ecmp_hash.select ~seed:5 pkt ~n:1)

let test_queue_disable_marking () =
  let q = Pkt_queue.create ~capacity_pkts:10 ~ecn_threshold_pkts:0 () in
  for _ = 1 to 8 do
    let p = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:(mk_seg ()) in
    p.Packet.ecn <- Packet.Ect;
    ignore (Pkt_queue.admit q p)
  done;
  check_int "no marks when disabled" 0 (Pkt_queue.stats q).Pkt_queue.marked;
  check_int "max occupancy tracked" 8 (Pkt_queue.stats q).Pkt_queue.max_occupancy

let test_link_counters () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:1e9 ~prop_delay:Sim_time.zero_span ~label:"x" () in
  Link.set_sink link (fun _ -> ());
  let pkt = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:(mk_seg ()) in
  Link.send link pkt;
  Scheduler.run sched;
  check_int "tx packets" 1 (Link.tx_packets link);
  check_int "tx bytes" pkt.Packet.size (Link.tx_bytes link);
  check_bool "label" true (Link.label link = "x");
  check_bool "rate" true (Link.rate_bps link = 1e9);
  check_bool "recently active utilization" true (Link.utilization link > 0.0)

let mk_switch () =
  let sched = Scheduler.create () in
  let sw =
    Switch.create ~sched ~id:7 ~level:Switch.Leaf ~ecmp_seed:1
      ~latency:Sim_time.zero_span ()
  in
  let sink = ref [] in
  let mk_port peer =
    let l = Link.create ~sched ~rate_bps:1e9 ~prop_delay:Sim_time.zero_span () in
    Link.set_sink l (fun p -> sink := (peer, p) :: !sink);
    Switch.add_port sw ~link:l ~peer ~parallel_index:0
  in
  let p0 = mk_port 100 and p1 = mk_port 101 in
  (sched, sw, sink, p0, p1)

let test_switch_int_stamp_and_drops () =
  let sched, sw, sink, p0, p1 = mk_switch () in
  Switch.set_routes sw (Addr.of_int 9) [| p0; p1 |];
  (* the picker chooses port 1 and records the egress utilization the
     INT stamp must see: the stamp follows the pick at the same instant *)
  let util_at_pick = ref [] in
  Switch.set_picker sw (fun sw ~in_port:_ pkt ~candidates ->
      let port = candidates.(1) in
      util_at_pick :=
        (pkt, Link.utilization (Switch.port_link sw port)) :: !util_at_pick;
      port);
  let mk ~int_enabled ~int_util =
    let pkt =
      Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 9) ~seg:(mk_seg ())
    in
    pkt.Packet.int_enabled <- int_enabled;
    pkt.Packet.int_util <- int_util;
    pkt
  in
  (* one burst: every packet after the first finds the egress link busy *)
  let int_pkts = List.init 4 (fun _ -> mk ~int_enabled:true ~int_util:0.0) in
  let upstream = mk ~int_enabled:true ~int_util:5.0 in
  let plain = mk ~int_enabled:false ~int_util:0.0 in
  List.iter (fun p -> Switch.receive sw ~in_port:0 p) (int_pkts @ [ upstream; plain ]);
  Scheduler.run sched;
  check_int "all delivered" 6 (List.length !sink);
  List.iter (fun (peer, _) -> check_int "picker chose port 1" 101 peer) !sink;
  let util p = List.assq p !util_at_pick in
  List.iter
    (fun p -> feq "stamp = max(0, egress utilization)" (util p) p.Packet.int_util)
    int_pkts;
  check_bool "egress was busy" true (List.exists (fun p -> util p > 0.0) int_pkts);
  check_bool "upstream value is larger" true (util upstream < 5.0);
  feq "stamp keeps a larger upstream value" 5.0 upstream.Packet.int_util;
  check_bool "plain packet crossed a busy link" true (util plain > 0.0);
  feq "non-INT packet unstamped" 0.0 plain.Packet.int_util;
  (* unknown destination counts a routing drop *)
  let lost = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 55) ~seg:(mk_seg ()) in
  Switch.receive sw ~in_port:0 lost;
  Scheduler.run sched;
  check_int "routing drop" 1 (Switch.routing_drops sw);
  check_int "rx counted" 7 (Switch.rx_packets sw)

let test_switch_ttl_tenant_dropped_silently () =
  let sched, sw, sink, p0, _ = mk_switch () in
  Switch.set_routes sw (Addr.of_int 9) [| p0 |];
  let pkt = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 9) ~seg:(mk_seg ()) in
  pkt.Packet.ttl <- 1;
  Switch.receive sw ~in_port:0 pkt;
  Scheduler.run sched;
  check_int "not forwarded" 0 (List.length !sink);
  check_int "ttl drop counted" 1 (Switch.ttl_drops sw)

let test_topology_edge_ops () =
  (* one leaf under one spine: a single leaf-spine edge *)
  let c =
    Topology.clos ~pods:1 ~leaves_per_pod:1 ~spines_per_pod:1 ~cores:0
      ~hosts_per_leaf:1 ~parallel:1 ~host_rate_bps:1e9 ~fabric_rate_bps:1e9
      ~core_rate_bps:1e9 ~delay:Sim_time.zero_span
  in
  let topo = c.Topology.topo and a = c.Topology.leaf_ids.(0) in
  let b = c.Topology.spine_ids.(0) in
  let e =
    match Topology.find_edge topo ~a ~b ~bundle_index:0 with
    | Some e -> e
    | None -> Alcotest.fail "no leaf-spine edge"
  in
  check_bool "find either orientation" true
    (Topology.find_edge topo ~a:b ~b:a ~bundle_index:0 = Some e);
  Topology.fail_edge topo e;
  check_int "only the host left" 1 (List.length (Topology.live_neighbors topo a));
  Topology.restore_edge topo e;
  check_int "restored" 2 (List.length (Topology.live_neighbors topo a))

let test_routing_distances () =
  let ls =
    Topology.clos ~pods:1 ~leaves_per_pod:2 ~spines_per_pod:1 ~cores:0
      ~hosts_per_leaf:1 ~parallel:1 ~host_rate_bps:1e9 ~fabric_rate_bps:1e9
      ~core_rate_bps:1e9 ~delay:Sim_time.zero_span
  in
  let dst = ls.Topology.host_ids.(1).(0) in
  let dist = Routing.distances ls.Topology.topo ~dst in
  check_int "self distance" 0 (Int_table.find_default dist dst (-1));
  (* other host: host -> leaf -> spine -> leaf -> host = 4 hops *)
  check_int "cross distance" 4 (Int_table.find_default dist ls.Topology.host_ids.(0).(0) (-1))

(* ------------------------------- transport ------------------------- *)

let test_tcp_invalid_send () =
  let sched = Scheduler.create () in
  let s =
    Transport.Tcp.create_sender ~sched ~dctcp:false ~conn_id:1
      ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~src_port:1 ~dst_port:2
      ~tx:(fun _ -> ())
      ()
  in
  Alcotest.check_raises "zero bytes" (Invalid_argument "Tcp.send: bytes must be positive")
    (fun () -> Transport.Tcp.send s ~bytes:0 ~on_complete:(fun () -> ()))

let test_tcp_cwnd_persists_across_jobs () =
  (* persistent connections do not restart slow start per job *)
  let sched = Scheduler.create () in
  let receiver_ref = ref None in
  let sender =
    Transport.Tcp.create_sender ~sched ~dctcp:false ~conn_id:1
      ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~src_port:1 ~dst_port:2
      ~tx:(fun pkt ->
        match pkt.Packet.payload with
        | Packet.Tenant inner ->
          Scheduler.schedule sched ~after:(Sim_time.us 10) (fun () ->
              match !receiver_ref with
              | Some r -> Transport.Tcp.on_data r inner
              | None -> ())
        | _ -> ())
      ()
  in
  let receiver =
    Transport.Tcp.create_receiver ~conn_id:1
      ~addr:(Addr.of_int 1) ~peer:(Addr.of_int 0) ~src_port:2 ~dst_port:1
      ~tx:(fun pkt ->
        match pkt.Packet.payload with
        | Packet.Tenant inner ->
          Scheduler.schedule sched ~after:(Sim_time.us 10) (fun () ->
              Transport.Tcp.on_ack sender inner.Packet.seg)
        | _ -> ())
      ()
  in
  receiver_ref := Some receiver;
  Transport.Tcp.send sender ~bytes:200_000 ~on_complete:(fun () -> ());
  Scheduler.run sched;
  let w_after_first = Transport.Tcp.cwnd_pkts sender in
  check_bool "grew past initial" true (w_after_first > 10.0);
  Transport.Tcp.send sender ~bytes:200_000 ~on_complete:(fun () -> ());
  Scheduler.run sched;
  check_bool "no slow-start restart" true (Transport.Tcp.cwnd_pkts sender >= w_after_first)

let test_mptcp_reinjection_recovers () =
  (* blackhole one subflow entirely: reinjection must still complete the
     job via the healthy subflows *)
  let sched = Scheduler.create () in
  let src = Addr.of_int 0 and dst = Addr.of_int 1 in
  let src_stack = Transport.Stack.create () and dst_stack = Transport.Stack.create () in
  let tx_src pkt =
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      if inner.Packet.seg.Packet.subflow <> 3 then
        Scheduler.schedule sched ~after:(Sim_time.us 50) (fun () ->
            Transport.Stack.deliver dst_stack inner)
    | _ -> ()
  in
  let tx_dst pkt =
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      Scheduler.schedule sched ~after:(Sim_time.us 50) (fun () ->
          Transport.Stack.deliver src_stack inner)
    | _ -> ()
  in
  let conn =
    Transport.Mptcp.create ~sched ~dctcp:false ~conn_id:2
      ~subflows:4 ~src ~dst ~base_port:3000 ~dst_port:80 ~tx_src ~tx_dst ~src_stack
      ~dst_stack ()
  in
  let finished = ref false in
  Transport.Mptcp.send conn ~bytes:500_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run ~until:(Sim_time.of_ns 5_000_000_000) sched;
  check_bool "completed despite dead subflow" true !finished;
  check_bool "reinjection used" true (Transport.Mptcp.reinjections conn > 0);
  Transport.Stack.stop_all src_stack

(* --------------------------------- clove --------------------------- *)

let test_wrr_normalize () =
  let w = Clove.Wrr.create ~weights:[| 2.0; 6.0 |] in
  Clove.Wrr.normalize w;
  feq "sums to one" 1.0 (Array.fold_left ( +. ) 0.0 (Clove.Wrr.weights w));
  feq "ratio preserved" 0.25 (Clove.Wrr.weight w 0)

let test_presto_rx_buffer_limit_flush () =
  let sched = Scheduler.create () in
  let limit = 512 (* Presto_rx's per-flow buffer limit *) in
  let out = ref 0 in
  let rx =
    Clove.Presto_rx.create ~sched ~cfg:Clove.Clove_config.default ~deliver:(fun _ ->
        incr out)
  in
  let inner seq =
    {
      Packet.src = Addr.of_int 0;
      dst = Addr.of_int 1;
      inner_ecn = Packet.Not_ect;
      seg = { (mk_seg ()) with Packet.seq };
    }
  in
  (* fill the buffer past the limit without ever delivering cell_seq 0 *)
  for i = 1 to limit + 1 do
    Clove.Presto_rx.on_packet rx (inner i)
      ~cell:{ Packet.flow_key = 1; cell_id = 0; cell_seq = i }
  done;
  check_bool "flushed on overflow" true (!out >= limit + 1);
  check_int "flush counted" 1 (Clove.Presto_rx.timeout_flushes rx)

let test_traceroute_counters () =
  let params = { Experiments.Scenario.default_params with seed = 2 } in
  let scn = Experiments.Scenario.build ~scheme:Experiments.Scenario.S_clove_ecn params in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  Clove.Vswitch.add_destination
    (Experiments.Scenario.vswitch scn client)
    (Host.addr server);
  Scheduler.run
    ~until:(Sim_time.of_ns (Sim_time.span_ns (Sim_time.ms 15)))
    (Experiments.Scenario.sched scn);
  let stats = Clove.Vswitch.stats (Experiments.Scenario.vswitch scn server) in
  check_bool "probes answered at destination" true
    (stats.Clove.Vswitch.probes_answered > 0);
  Experiments.Scenario.quiesce scn

(* ------------------------------ experiments ------------------------ *)

let test_scenario_k_paths_override () =
  let params =
    { Experiments.Scenario.default_params with k_paths_override = Some 2; seed = 4 }
  in
  let scn = Experiments.Scenario.build ~scheme:Experiments.Scenario.S_clove_ecn params in
  let client = (Experiments.Scenario.clients scn).(0) in
  let server = (Experiments.Scenario.servers scn).(0) in
  Clove.Vswitch.add_destination
    (Experiments.Scenario.vswitch scn client)
    (Host.addr server);
  Scheduler.run
    ~until:(Sim_time.of_ns (Sim_time.span_ns (Sim_time.ms 15)))
    (Experiments.Scenario.sched scn);
  (match
     Clove.Vswitch.path_table (Experiments.Scenario.vswitch scn client) (Host.addr server)
   with
  | Some tbl -> check_int "capped at 2 paths" 2 (Clove.Path_table.port_count tbl)
  | None -> Alcotest.fail "no table");
  Experiments.Scenario.quiesce scn

let test_scheme_names_roundtrip () =
  List.iter
    (fun s ->
      let name = Experiments.Scenario.scheme_name s in
      match Experiments.Scenario.scheme_of_string name with
      | Some s' -> check_bool name true (s = s')
      | None -> Alcotest.fail ("no roundtrip for " ^ name))
    Experiments.Scenario.
      [
        S_ecmp;
        S_edge_flowlet;
        S_clove_ecn;
        S_clove_int;
        S_clove_latency;
        S_presto;
        S_mptcp;
        S_conga;
        S_letflow;
      ]

let () =
  Alcotest.run "coverage"
    [
      ( "engine",
        [
          Alcotest.test_case "rng named splits" `Quick test_rng_split_named_differs_by_name;
          Alcotest.test_case "scheduler pending" `Quick test_scheduler_armed;
          Alcotest.test_case "pending count" `Quick test_scheduler_pending_count;
        ] );
      ( "stats",
        [
          Alcotest.test_case "invalid percentile" `Quick test_summary_invalid_percentile;
          Alcotest.test_case "table formatting" `Quick test_table_float_formatting;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "addr" `Quick test_addr_basics;
          Alcotest.test_case "select n=1" `Quick test_ecmp_select_single;
          Alcotest.test_case "queue marking disabled" `Quick test_queue_disable_marking;
          Alcotest.test_case "link counters" `Quick test_link_counters;
          Alcotest.test_case "switch int stamp and drops" `Quick
            test_switch_int_stamp_and_drops;
          Alcotest.test_case "ttl drop silent for data" `Quick
            test_switch_ttl_tenant_dropped_silently;
          Alcotest.test_case "topology edge ops" `Quick test_topology_edge_ops;
          Alcotest.test_case "routing distances" `Quick test_routing_distances;
        ] );
      ( "transport",
        [
          Alcotest.test_case "invalid send" `Quick test_tcp_invalid_send;
          Alcotest.test_case "cwnd persists across jobs" `Quick
            test_tcp_cwnd_persists_across_jobs;
          Alcotest.test_case "mptcp reinjection recovers" `Quick
            test_mptcp_reinjection_recovers;
        ] );
      ( "clove",
        [
          Alcotest.test_case "wrr normalize" `Quick test_wrr_normalize;
          Alcotest.test_case "presto buffer limit" `Quick test_presto_rx_buffer_limit_flush;
          Alcotest.test_case "traceroute counters" `Quick test_traceroute_counters;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "k paths override" `Quick test_scenario_k_paths_override;
          Alcotest.test_case "scheme names roundtrip" `Quick test_scheme_names_roundtrip;
        ] );
    ]
