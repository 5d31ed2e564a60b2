(* Tests for the TCP and MPTCP models.

   Endpoints are exercised over synthetic pipes: a perfect in-order pipe
   with fixed latency, and a lossy pipe that drops chosen packets (loss
   recovery tests).  Full-fabric behaviour is covered in
   test_integration.ml. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Transport.Tcp_config.default

(* a bidirectional pipe between one sender and one receiver with [latency],
   dropping data packets whose global index satisfies [drop] *)
let make_pair ?(latency = Sim_time.us 50) ?(drop = fun _ -> false) () =
  let sched = Scheduler.create () in
  let src = Addr.of_int 0 and dst = Addr.of_int 1 in
  let data_count = ref 0 in
  let receiver_ref = ref None and sender_ref = ref None in
  let deliver_to_receiver inner =
    match !receiver_ref with
    | Some r -> Transport.Tcp.on_data r inner
    | None -> ()
  in
  let deliver_to_sender seg =
    match !sender_ref with
    | Some s -> Transport.Tcp.on_ack s seg
    | None -> ()
  in
  let tx_src pkt =
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      let idx = !data_count in
      incr data_count;
      if not (drop idx) then
        ignore
          (Scheduler.schedule sched ~after:latency (fun () -> deliver_to_receiver inner))
    | _ -> ()
  in
  let tx_dst pkt =
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      ignore
        (Scheduler.schedule sched ~after:latency (fun () ->
             deliver_to_sender inner.Packet.seg))
    | _ -> ()
  in
  let sender =
    Transport.Tcp.create_sender ~sched ~cfg ~conn_id:1 ~src ~dst ~src_port:1000
      ~dst_port:80 ~tx:tx_src ()
  in
  let receiver =
    Transport.Tcp.create_receiver ~conn_id:1 ~addr:dst ~peer:src
      ~src_port:80 ~dst_port:1000 ~tx:tx_dst ()
  in
  sender_ref := Some sender;
  receiver_ref := Some receiver;
  (sched, sender, receiver)

(* ------------------------------ Rtt_estimator --------------------- *)

let test_rtt_srtt_tracks () =
  let r = Transport.Rtt_estimator.create () in
  Alcotest.(check bool) "no sample yet" true (Transport.Rtt_estimator.srtt r = None);
  Transport.Rtt_estimator.sample r (Sim_time.us 100);
  (match Transport.Rtt_estimator.srtt r with
  | Some s -> check_int "first sample" 100_000 (Sim_time.span_ns s)
  | None -> Alcotest.fail "expected srtt");
  Transport.Rtt_estimator.sample r (Sim_time.us 200);
  match Transport.Rtt_estimator.srtt r with
  | Some s ->
    check_bool "ewma between" true
      (Sim_time.span_ns s > 100_000 && Sim_time.span_ns s < 200_000)
  | None -> Alcotest.fail "expected srtt"

let test_rtt_rto_floor_and_backoff () =
  let r = Transport.Rtt_estimator.create ~min_rto:(Sim_time.ms 10) () in
  Transport.Rtt_estimator.sample r (Sim_time.us 50);
  check_int "floored at min" 10_000_000 (Sim_time.span_ns (Transport.Rtt_estimator.rto r));
  Transport.Rtt_estimator.backoff r;
  check_int "doubled" 20_000_000 (Sim_time.span_ns (Transport.Rtt_estimator.rto r));
  Transport.Rtt_estimator.sample r (Sim_time.us 50);
  check_int "sample resets backoff" 10_000_000 (Sim_time.span_ns (Transport.Rtt_estimator.rto r))

(* ---------------------------------- Tcp --------------------------- *)

let test_tcp_transfers_all_bytes () =
  let sched, sender, receiver = make_pair () in
  let finished = ref false in
  Transport.Tcp.send sender ~bytes:1_000_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "completed" true !finished;
  check_int "all delivered" 1_000_000 (Transport.Tcp.delivered_bytes receiver);
  check_int "no retransmits on clean path" 0 (Transport.Tcp.retransmits sender)

let test_tcp_jobs_fifo () =
  let sched, sender, _ = make_pair () in
  let order = ref [] in
  Transport.Tcp.send sender ~bytes:5_000 ~on_complete:(fun () -> order := 1 :: !order);
  Transport.Tcp.send sender ~bytes:5_000 ~on_complete:(fun () -> order := 2 :: !order);
  Transport.Tcp.send sender ~bytes:5_000 ~on_complete:(fun () -> order := 3 :: !order);
  Scheduler.run sched;
  Alcotest.(check (list int)) "fifo completion" [ 1; 2; 3 ] (List.rev !order)

let test_tcp_slow_start_growth () =
  let sched, sender, _ = make_pair () in
  let w0 = Transport.Tcp.cwnd_pkts sender in
  Transport.Tcp.send sender ~bytes:500_000 ~on_complete:(fun () -> ());
  Scheduler.run sched;
  check_bool "window grew" true (Transport.Tcp.cwnd_pkts sender > w0)

let test_tcp_fast_retransmit_recovers () =
  (* drop one early data packet: dupacks must trigger a fast retransmit,
     not a timeout *)
  let sched, sender, receiver = make_pair ~drop:(fun i -> i = 12) () in
  let finished = ref false in
  Transport.Tcp.send sender ~bytes:300_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "completed despite loss" true !finished;
  check_int "all delivered" 300_000 (Transport.Tcp.delivered_bytes receiver);
  check_bool "retransmitted" true (Transport.Tcp.retransmits sender >= 1);
  check_int "no timeout needed" 0 (Transport.Tcp.timeouts sender)

let test_tcp_tail_loss_probe () =
  (* drop the very LAST packet of the flow: no dupacks can arrive; the
     tail loss probe must recover it without a full RTO *)
  let total = 50_000 in
  let npkts = (total + cfg.Transport.Tcp_config.mss - 1) / cfg.Transport.Tcp_config.mss in
  let sched, sender, receiver = make_pair ~drop:(fun i -> i = npkts - 1) () in
  let finished = ref false in
  Transport.Tcp.send sender ~bytes:total ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "completed" true !finished;
  check_int "delivered" total (Transport.Tcp.delivered_bytes receiver);
  check_int "no full RTO" 0 (Transport.Tcp.timeouts sender);
  check_bool "probe retransmission happened" true (Transport.Tcp.retransmits sender >= 1)

let test_tcp_timeout_recovers () =
  (* drop both initial packets AND the tail-loss probe: with no feedback at
     all, only the full RTO path remains *)
  let sched, sender, receiver = make_pair ~drop:(fun i -> i <= 2) () in
  let finished = ref false in
  Transport.Tcp.send sender ~bytes:2_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "completed" true !finished;
  check_int "delivered" 2_000 (Transport.Tcp.delivered_bytes receiver);
  check_bool "took a timeout" true (Transport.Tcp.timeouts sender >= 1)

let test_tcp_burst_loss_recovers () =
  (* drop a whole window-burst worth of packets *)
  let sched, sender, receiver = make_pair ~drop:(fun i -> i >= 20 && i < 35) () in
  let finished = ref false in
  Transport.Tcp.send sender ~bytes:400_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "completed" true !finished;
  check_int "delivered" 400_000 (Transport.Tcp.delivered_bytes receiver)

let test_tcp_ecn_signal_halves_window () =
  let sched, sender, _ = make_pair () in
  Transport.Tcp.send sender ~bytes:2_000_000 ~on_complete:(fun () -> ());
  (* let the window open up *)
  Scheduler.run ~until:(Sim_time.of_ns 2_000_000) sched;
  let w = Transport.Tcp.cwnd_pkts sender in
  Transport.Tcp.ecn_signal sender;
  let w' = Transport.Tcp.cwnd_pkts sender in
  check_bool "reduced" true (w' < w);
  (* a second signal within the same RTT must not cut again *)
  Transport.Tcp.ecn_signal sender;
  Alcotest.(check (float 0.001)) "rate limited" w' (Transport.Tcp.cwnd_pkts sender);
  Scheduler.run sched

let test_tcp_receiver_reorder_buffer () =
  let acks = ref [] in
  let receiver =
    Transport.Tcp.create_receiver ~conn_id:1 ~addr:(Addr.of_int 1)
      ~peer:(Addr.of_int 0) ~src_port:80 ~dst_port:1000
      ~tx:(fun pkt ->
        match pkt.Packet.payload with
        | Packet.Tenant i -> acks := i.Packet.seg.Packet.ack :: !acks
        | _ -> ())
      ()
  in
  let seg seq =
    {
      Packet.conn_id = 1;
      subflow = 0;
      src_port = 1000;
      dst_port = 80;
      seq;
      ack = 0;
      kind = Packet.Data;
      payload = 1000;
      ece = false;
    }
  in
  let inner seq =
    { Packet.src = Addr.of_int 0; dst = Addr.of_int 1; inner_ecn = Packet.Not_ect; seg = seg seq }
  in
  (* deliver 0, then 2000 (gap), then 1000 (fills the hole) *)
  Transport.Tcp.on_data receiver (inner 0);
  Transport.Tcp.on_data receiver (inner 2000);
  Transport.Tcp.on_data receiver (inner 1000);
  Alcotest.(check (list int)) "cumulative acks" [ 1000; 1000; 3000 ] (List.rev !acks);
  check_int "one ooo segment" 1 (Transport.Tcp.ooo_segments receiver);
  (* duplicate data must still be acked (resynchronizes a blind sender) *)
  Transport.Tcp.on_data receiver (inner 0);
  Alcotest.(check int) "dup acked" 3000 (List.hd !acks)

let test_tcp_ece_echo () =
  let last_ece = ref false in
  let receiver =
    Transport.Tcp.create_receiver ~conn_id:1 ~addr:(Addr.of_int 1)
      ~peer:(Addr.of_int 0) ~src_port:80 ~dst_port:1000
      ~tx:(fun pkt ->
        match pkt.Packet.payload with
        | Packet.Tenant i -> last_ece := i.Packet.seg.Packet.ece
        | _ -> ())
      ()
  in
  let inner ecn seq =
    {
      Packet.src = Addr.of_int 0;
      dst = Addr.of_int 1;
      inner_ecn = ecn;
      seg =
        {
          Packet.conn_id = 1;
          subflow = 0;
          src_port = 1000;
          dst_port = 80;
          seq;
          ack = 0;
          kind = Packet.Data;
          payload = 1000;
          ece = false;
        };
    }
  in
  Transport.Tcp.on_data receiver (inner Packet.Not_ect 0);
  check_bool "no ece" false !last_ece;
  Transport.Tcp.on_data receiver (inner Packet.Ce 1000);
  check_bool "ece echoed on CE" true !last_ece

(* --------------------------------- Mptcp -------------------------- *)

(* wire an MPTCP connection over per-subflow lossless pipes *)
let make_mptcp ?(subflows = 4) () =
  let sched = Scheduler.create () in
  let src = Addr.of_int 0 and dst = Addr.of_int 1 in
  let src_stack = Transport.Stack.create () and dst_stack = Transport.Stack.create () in
  let latency = Sim_time.us 50 in
  let tx_src pkt =
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      ignore
        (Scheduler.schedule sched ~after:latency (fun () ->
             Transport.Stack.deliver dst_stack inner))
    | _ -> ()
  in
  let tx_dst pkt =
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      ignore
        (Scheduler.schedule sched ~after:latency (fun () ->
             Transport.Stack.deliver src_stack inner))
    | _ -> ()
  in
  let conn =
    Transport.Mptcp.create ~sched ~cfg ~conn_id:7 ~subflows ~src ~dst ~base_port:2000
      ~dst_port:80 ~tx_src ~tx_dst ~src_stack ~dst_stack ()
  in
  (sched, conn, src_stack, dst_stack)

let test_mptcp_transfer_completes () =
  let sched, conn, _, _ = make_mptcp () in
  let finished = ref false in
  Transport.Mptcp.send conn ~bytes:1_000_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "completed" true !finished

let test_mptcp_stripes_large_transfers () =
  let sched, conn, src_stack, _ = make_mptcp () in
  Transport.Mptcp.send conn ~bytes:2_000_000 ~on_complete:(fun () -> ());
  Scheduler.run sched;
  ignore conn;
  let senders = Transport.Stack.senders src_stack in
  check_int "four subflows" 4 (List.length senders);
  List.iter
    (fun s -> check_bool "subflow carried bytes" true (Transport.Tcp.snd_una s > 0))
    senders

let test_mptcp_pins_small_transfers () =
  (* a mouse below the stripe threshold rides exactly one subflow *)
  let sched, conn, src_stack, _ = make_mptcp () in
  Transport.Mptcp.send conn ~bytes:20_000 ~on_complete:(fun () -> ());
  Scheduler.run sched;
  ignore conn;
  let active =
    List.filter (fun s -> Transport.Tcp.snd_una s > 0) (Transport.Stack.senders src_stack)
  in
  check_int "single subflow used" 1 (List.length active)

let test_mptcp_jobs_complete_in_order () =
  let sched, conn, _, _ = make_mptcp () in
  let order = ref [] in
  Transport.Mptcp.send conn ~bytes:100_000 ~on_complete:(fun () -> order := 1 :: !order);
  Transport.Mptcp.send conn ~bytes:100_000 ~on_complete:(fun () -> order := 2 :: !order);
  Scheduler.run sched;
  Alcotest.(check (list int)) "order" [ 1; 2 ] (List.rev !order)

let test_mptcp_single_subflow_degenerates () =
  let sched, conn, _, _ = make_mptcp ~subflows:1 () in
  let finished = ref false in
  Transport.Mptcp.send conn ~bytes:200_000 ~on_complete:(fun () -> finished := true);
  Scheduler.run sched;
  check_bool "works with one subflow" true !finished

(* --------------------------------- Stack -------------------------- *)

let test_stack_dispatch_and_unknown () =
  let sched = Scheduler.create () in
  let st = Transport.Stack.create () in
  let sender =
    Transport.Tcp.create_sender ~sched ~cfg ~conn_id:9 ~src:(Addr.of_int 0)
      ~dst:(Addr.of_int 1) ~src_port:1 ~dst_port:2
      ~tx:(fun _ -> ())
      ()
  in
  Transport.Stack.register_sender st sender;
  let ack conn_id =
    {
      Packet.src = Addr.of_int 1;
      dst = Addr.of_int 0;
      inner_ecn = Packet.Not_ect;
      seg =
        {
          Packet.conn_id;
          subflow = 0;
          src_port = 2;
          dst_port = 1;
          seq = 0;
          ack = 0;
          kind = Packet.Ack;
          payload = 0;
          ece = false;
        };
    }
  in
  Transport.Stack.deliver st (ack 9);
  check_int "known conn ok" 0 (Transport.Stack.unknown_drops st);
  Transport.Stack.deliver st (ack 555);
  check_int "unknown counted" 1 (Transport.Stack.unknown_drops st)

let test_stack_ecn_signal_routing () =
  let sched = Scheduler.create () in
  let st = Transport.Stack.create () in
  let mk dst_int conn_id =
    let s =
      Transport.Tcp.create_sender ~sched ~cfg ~conn_id ~src:(Addr.of_int 0)
        ~dst:(Addr.of_int dst_int) ~src_port:1 ~dst_port:2
        ~tx:(fun _ -> ())
        ()
    in
    Transport.Stack.register_sender st s;
    s
  in
  let s1 = mk 1 1 and s2 = mk 2 2 in
  (* open windows so a cut is observable *)
  Transport.Tcp.send s1 ~bytes:1_000_000 ~on_complete:(fun () -> ());
  Transport.Tcp.send s2 ~bytes:1_000_000 ~on_complete:(fun () -> ());
  let w1 = Transport.Tcp.cwnd_pkts s1 and w2 = Transport.Tcp.cwnd_pkts s2 in
  Transport.Stack.ecn_signal_all st ~dst:(Addr.of_int 1);
  check_bool "dst 1 sender cut" true (Transport.Tcp.cwnd_pkts s1 < w1);
  Alcotest.(check (float 0.001)) "dst 2 untouched" w2 (Transport.Tcp.cwnd_pkts s2);
  Transport.Stack.stop_all st

let prop_tcp_random_loss_still_delivers =
  QCheck.Test.make ~name:"tcp delivers all bytes under random loss" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 5 30))
    (fun (seed, loss_pct_tenths) ->
      (* up to ~3% random packet loss *)
      let rng = Rng.create seed in
      let drop _ = Rng.int rng 1000 < loss_pct_tenths in
      let sched, sender, receiver = make_pair ~drop () in
      let finished = ref false in
      Transport.Tcp.send sender ~bytes:200_000 ~on_complete:(fun () -> finished := true);
      Scheduler.run sched;
      ignore sender;
      !finished && Transport.Tcp.delivered_bytes receiver = 200_000)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "transport"
    [
      ( "rtt_estimator",
        [
          Alcotest.test_case "srtt tracking" `Quick test_rtt_srtt_tracks;
          Alcotest.test_case "rto floor and backoff" `Quick test_rtt_rto_floor_and_backoff;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "transfers all bytes" `Quick test_tcp_transfers_all_bytes;
          Alcotest.test_case "jobs complete fifo" `Quick test_tcp_jobs_fifo;
          Alcotest.test_case "slow start grows" `Quick test_tcp_slow_start_growth;
          Alcotest.test_case "fast retransmit" `Quick test_tcp_fast_retransmit_recovers;
          Alcotest.test_case "tail loss probe" `Quick test_tcp_tail_loss_probe;
          Alcotest.test_case "rto recovery" `Quick test_tcp_timeout_recovers;
          Alcotest.test_case "burst loss recovery" `Quick test_tcp_burst_loss_recovers;
          Alcotest.test_case "ecn signal halves window" `Quick test_tcp_ecn_signal_halves_window;
          Alcotest.test_case "receiver reorder buffer" `Quick test_tcp_receiver_reorder_buffer;
          Alcotest.test_case "ece echo on CE" `Quick test_tcp_ece_echo;
          qc prop_tcp_random_loss_still_delivers;
        ] );
      ( "mptcp",
        [
          Alcotest.test_case "transfer completes" `Quick test_mptcp_transfer_completes;
          Alcotest.test_case "stripes large transfers" `Quick test_mptcp_stripes_large_transfers;
          Alcotest.test_case "pins small transfers" `Quick test_mptcp_pins_small_transfers;
          Alcotest.test_case "jobs in order" `Quick test_mptcp_jobs_complete_in_order;
          Alcotest.test_case "single subflow" `Quick test_mptcp_single_subflow_degenerates;
        ] );
      ( "stack",
        [
          Alcotest.test_case "dispatch and unknown" `Quick test_stack_dispatch_and_unknown;
          Alcotest.test_case "ecn signal routing" `Quick test_stack_ecn_signal_routing;
        ] );
    ]
