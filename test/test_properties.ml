(* Property-based tests of core invariants, beyond the per-module suites:
   reassembly is a sorting function, path-table weights stay a probability
   distribution, the receiver's interval buffer loses nothing, flowlet
   decisions change only across gaps. *)

let qc = QCheck_alcotest.to_alcotest

(* Presto reassembly: any arrival order of distinct cell_seqs, with no
   losses, must be delivered in exactly ascending order. *)
let prop_presto_reassembly_sorts =
  QCheck.Test.make ~name:"presto reassembly delivers in order" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let order = Array.init n (fun i -> i) in
      Rng.shuffle rng order;
      let sched = Scheduler.create () in
      (* at most 40 packets buffered: below the buffer limit, so nothing
         flushes early *)
      let out = ref [] in
      let rx =
        Clove.Presto_rx.create ~sched ~cfg:Clove.Clove_config.default ~deliver:(fun i ->
            out := i.Packet.seg.Packet.seq :: !out)
      in
      Array.iter
        (fun seq ->
          let inner =
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
                  payload = 1;
                  ece = false;
                };
            }
          in
          Clove.Presto_rx.on_packet rx inner
            ~cell:{ Packet.flow_key = 1; cell_id = 0; cell_seq = seq })
        order;
      List.rev !out = List.init n (fun i -> i))

(* Path-table weights remain a probability distribution under arbitrary
   congestion feedback. *)
let prop_path_table_weights_distribution =
  QCheck.Test.make ~name:"weights stay a distribution under feedback" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 0 5))
    (fun events ->
      let sched = Scheduler.create () in
      let tbl = Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default in
      let hop n = { Packet.hop_node = n; hop_port = 0 } in
      Clove.Path_table.install tbl
        (List.init 4 (fun i -> (50_000 + i, [ hop (10 + i) ])));
      List.iter
        (fun e -> Clove.Path_table.note_congested tbl ~port:(50_000 + (e mod 6)))
        events;
      let w = Clove.Path_table.weights tbl in
      let total = Array.fold_left ( +. ) 0.0 w in
      abs_float (total -. 1.0) < 1e-6 && Array.for_all (fun x -> x >= 0.0) w)

(* The TCP receiver never loses or duplicates bytes: delivering random
   segments (with overlaps and duplicates) that cover [0, n) must advance
   rcv_next to exactly n. *)
let prop_receiver_interval_union =
  QCheck.Test.make ~name:"receiver buffer assembles the byte stream" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 20))
    (fun (seed, nsegs) ->
      let rng = Rng.create seed in
      let seg_len = 100 in
      let total = nsegs * seg_len in
      let order = Array.init nsegs (fun i -> i) in
      Rng.shuffle rng order;
      let r =
        Transport.Tcp.create_receiver ~conn_id:1 ~addr:(Addr.of_int 1)
          ~peer:(Addr.of_int 0) ~src_port:2 ~dst_port:1
          ~tx:(fun _ -> ())
          ()
      in
      let deliver seq =
        Transport.Tcp.on_data r
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
                payload = seg_len;
                ece = false;
              };
          }
      in
      Array.iter (fun i -> deliver (i * seg_len)) order;
      (* random duplicates must change nothing *)
      for _ = 1 to 5 do
        deliver (Rng.int rng nsegs * seg_len)
      done;
      Transport.Tcp.rcv_next r = total
      && Transport.Tcp.delivered_bytes r = total)

(* Flowlet decisions are stable within a gap and refreshed across gaps. *)
let prop_flowlet_gap_semantics =
  QCheck.Test.make ~name:"flowlet decisions change only across gaps" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 30))
    (fun gaps_us ->
      let sched = Scheduler.create () in
      let gap = Sim_time.us 10 in
      let t = Clove.Flowlet.create ~sched ~gap ~dummy:0 in
      let next_decision = ref 0 in
      let pick ~flowlet_id:_ =
        incr next_decision;
        !next_decision
      in
      let ok = ref true in
      let last_decision = ref 0 in
      let first = ref true in
      List.iter
        (fun delta_us ->
          ignore
            (Scheduler.schedule sched ~after:(Sim_time.us delta_us) (fun () ->
                 (* the inter-touch time is exactly [delta_us], so a new
                    flowlet is expected iff it reaches the 10 us gap (or
                    this is the flow's first packet) *)
                 let expect_new = !first || delta_us >= 10 in
                 first := false;
                 let d = Clove.Flowlet.touch t ~key:1 ~pick in
                 if expect_new then begin
                   if d <> !last_decision + 1 then ok := false
                 end
                 else if d <> !last_decision then ok := false;
                 last_decision := d));
          Scheduler.run sched)
        gaps_us;
      !ok)

let () =
  Alcotest.run "properties"
    [
      ( "invariants",
        [
          qc prop_presto_reassembly_sorts;
          qc prop_path_table_weights_distribution;
          qc prop_receiver_interval_union;
          qc prop_flowlet_gap_semantics;
        ] );
    ]
