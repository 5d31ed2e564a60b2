(* End-to-end dataplane behaviours of the virtual switch that the other
   suites do not pin down: ECN masking, the all-paths-congested escalation,
   Presto flowcell tagging, and Edge-Flowlet's port randomization. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Experiments

let build ?(scheme = Scenario.S_clove_ecn) ?(params = Scenario.default_params) () =
  Scenario.build ~scheme { params with Scenario.seed = 6 }

let mk_seg ?(conn_id = 999) () =
  {
    Packet.conn_id;
    subflow = 0;
    src_port = 1;
    dst_port = 2;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload = 100;
    ece = false;
  }

(* hand-craft an encapsulated packet as if it came off the fabric *)
let encapped ?(ce = false) ?feedback ~src ~dst ~port () =
  let pkt = Packet.make_tenant ~src:(Host.addr src) ~dst:(Host.addr dst) ~seg:(mk_seg ()) in
  pkt.Packet.encap <-
    Some
      {
        Packet.src_hv = Host.addr src;
        dst_hv = Host.addr dst;
        src_port = port;
        dst_port = Packet.stt_port;
        feedback;
        cell = None;
      };
  if ce then pkt.Packet.ecn <- Packet.Ce;
  pkt

(* -------------------------- ECN masking --------------------------- *)

let test_vswitch_masks_fabric_ce_from_guest () =
  (* a CE-marked outer packet must be delivered to the guest with a clean
     inner header — the guest only throttles when Clove escalates *)
  let scn = build () in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let pkt = encapped ~ce:true ~src:client ~dst:server ~port:55555 () in
  (match pkt.Packet.payload with
  | Packet.Tenant inner ->
    Host.deliver server pkt;
    check_bool "inner header untouched" true (inner.Packet.inner_ecn = Packet.Not_ect)
  | _ -> Alcotest.fail "expected tenant");
  Scenario.quiesce scn

let test_vswitch_exposes_ce_for_dctcp () =
  let params = { Scenario.default_params with Scenario.guest_dctcp = true } in
  let scn = build ~params () in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let pkt = encapped ~ce:true ~src:client ~dst:server ~port:55555 () in
  (match pkt.Packet.payload with
  | Packet.Tenant inner ->
    Host.deliver server pkt;
    check_bool "inner CE exposed" true (inner.Packet.inner_ecn = Packet.Ce)
  | _ -> Alcotest.fail "expected tenant");
  Scenario.quiesce scn

(* --------------------- all-congested escalation ------------------- *)

let test_escalation_cuts_guest_window () =
  let scn = build () in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  (* let discovery finish and open the sender's window with a transfer *)
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      submit ~bytes:5_000_000 ~on_complete:(fun () -> ()));
  Scheduler.run ~until:(Sim_time.of_ns 27_000_000) sched;
  let v = Scenario.vswitch scn client in
  let ports =
    match Clove.Vswitch.path_table v (Host.addr server) with
    | Some tbl -> Clove.Path_table.ports tbl
    | None -> Alcotest.fail "no paths discovered"
  in
  check_int "four ports" 4 (Array.length ports);
  let sender = List.hd (Transport.Stack.senders (Scenario.stack scn client)) in
  let w_before = Transport.Tcp.cwnd_pkts sender in
  (* deliver congestion feedback for every port to the client's vswitch,
     as the server's hypervisor would piggyback it *)
  Array.iter
    (fun port ->
      let fb = Packet.Fb_ecn { port } in
      let pkt = encapped ~feedback:fb ~src:server ~dst:client ~port:40000 () in
      Host.deliver client pkt)
    ports;
  let stats = Clove.Vswitch.stats v in
  check_bool "escalated to the guest" true (stats.Clove.Vswitch.escalations >= 1);
  check_bool "guest window cut" true (Transport.Tcp.cwnd_pkts sender < w_before);
  Scenario.quiesce scn

let test_partial_congestion_no_escalation () =
  let scn = build () in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let (_ : Workload.Websearch.submit) = Scenario.connect scn ~src:client ~dst:server in
  Scheduler.run ~until:(Sim_time.of_ns 25_000_000) sched;
  let v = Scenario.vswitch scn client in
  (match Clove.Vswitch.path_table v (Host.addr server) with
  | Some tbl ->
    (* only one of four paths congested: mask, do not escalate *)
    let port = (Clove.Path_table.ports tbl).(0) in
    let fb = Packet.Fb_ecn { port } in
    Host.deliver client (encapped ~feedback:fb ~src:server ~dst:client ~port:40000 ());
    let stats = Clove.Vswitch.stats v in
    check_int "no escalation" 0 stats.Clove.Vswitch.escalations
  | None -> Alcotest.fail "no paths");
  Scenario.quiesce scn

(* --------------------------- Presto cells ------------------------- *)

let test_presto_attaches_flowcells () =
  let scn = build ~scheme:Scenario.S_presto () in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  (* tap the client's NIC: every encapsulated data packet must carry a
     flowcell tag once discovery is done *)
  let cells = ref [] in
  Host.set_tx_tap client (fun pkt ->
      match pkt.Packet.encap with
      | Some e -> (
        match e.Packet.cell with
        | Some c -> cells := c.Packet.cell_id :: !cells
        | None -> ())
      | None -> ());
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      submit ~bytes:500_000 ~on_complete:(fun () -> ()));
  Scheduler.run ~until:(Sim_time.of_ns 40_000_000) sched;
  check_bool "flowcell tags attached" true (List.length !cells > 0);
  (* 500 KB spans several 64 KB cells even while the window ramps *)
  let distinct = List.sort_uniq compare !cells in
  check_bool "multiple cells" true (List.length distinct >= 2);
  Scenario.quiesce scn

(* ------------------------- Edge-Flowlet ports --------------------- *)

let test_edge_flowlet_ports_in_ephemeral_range () =
  let scn = build ~scheme:Scenario.S_edge_flowlet () in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let ports = Hashtbl.create 16 in
  Host.set_tx_tap client (fun pkt ->
      match pkt.Packet.encap with
      | Some e -> Hashtbl.replace ports e.Packet.src_port ()
      | None -> ());
  Scheduler.schedule sched ~after:(Sim_time.ms 1) (fun () ->
      submit ~bytes:100_000 ~on_complete:(fun () -> ()));
  Scheduler.run ~until:(Sim_time.of_ns 20_000_000) sched;
  check_bool "packets observed" true (Hashtbl.length ports > 0);
  Hashtbl.iter
    (fun p () -> check_bool "ephemeral range" true (p >= 49152 && p < 65536))
    ports;
  Scenario.quiesce scn

(* ----------------------------- counters --------------------------- *)

let test_fabric_counters_accumulate () =
  let scn = build () in
  let sched = Scenario.sched scn in
  let clients = Scenario.clients scn in
  let server = (Scenario.servers scn).(0) in
  Array.iter
    (fun c ->
      let submit = Scenario.connect scn ~src:c ~dst:server in
      Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
          submit ~bytes:2_000_000 ~on_complete:(fun () -> ())))
    clients;
  Scheduler.run ~until:(Sim_time.of_ns 60_000_000) sched;
  (* eight clients into one server access link: must mark (and likely
     drop) at the shared bottleneck *)
  check_bool "marks observed" true (Scenario.total_marks scn > 0);
  Scenario.quiesce scn

let () =
  Alcotest.run "dataplane"
    [
      ( "ecn-masking",
        [
          Alcotest.test_case "masks CE from guest" `Quick test_vswitch_masks_fabric_ce_from_guest;
          Alcotest.test_case "exposes CE for dctcp" `Quick test_vswitch_exposes_ce_for_dctcp;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "all congested cuts guest" `Quick test_escalation_cuts_guest_window;
          Alcotest.test_case "partial congestion masks" `Quick test_partial_congestion_no_escalation;
        ] );
      ( "presto",
        [ Alcotest.test_case "flowcell tags" `Quick test_presto_attaches_flowcells ] );
      ( "edge-flowlet",
        [ Alcotest.test_case "ephemeral ports" `Quick test_edge_flowlet_ports_in_ephemeral_range ] );
      ( "counters",
        [ Alcotest.test_case "fabric counters" `Quick test_fabric_counters_accumulate ] );
    ]
