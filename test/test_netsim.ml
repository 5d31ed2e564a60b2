(* Unit and property tests for the network substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_seg ?(payload = 1400) ?(kind = Packet.Data) () =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 1000;
    dst_port = 80;
    seq = 0;
    ack = 0;
    kind;
    payload;
    ece = false;
  }

let mk_data ?(src = 0) ?(dst = 1) ?payload () =
  Packet.make_tenant ~src:(Addr.of_int src) ~dst:(Addr.of_int dst)
    ~seg:(mk_seg ?payload ())

let encapsulate ?(src_port = 50000) pkt ~src ~dst =
  pkt.Packet.encap <-
    Some
      {
        Packet.src_hv = Addr.of_int src;
        dst_hv = Addr.of_int dst;
        src_port;
        dst_port = Packet.stt_port;
        feedback = None;
        cell = None;
      };
  pkt.Packet.size <- pkt.Packet.size + Packet.encap_header_bytes;
  pkt

(* -------------------------------- Packet -------------------------- *)

let test_packet_sizes () =
  let pkt = mk_data () in
  check_int "wire size" (1400 + Packet.inner_header_bytes) pkt.Packet.size;
  let pkt = encapsulate pkt ~src:0 ~dst:1 in
  check_int "encap adds header" (1400 + 40 + 58) pkt.Packet.size

let test_packet_route_dst () =
  let pkt = mk_data ~src:0 ~dst:1 () in
  check_int "inner dst" 1 (Addr.to_int (Packet.route_dst pkt));
  let pkt = encapsulate pkt ~src:5 ~dst:9 in
  check_int "outer dst wins" 9 (Addr.to_int (Packet.route_dst pkt))

let test_flow_key_stability () =
  let a = mk_data () and b = mk_data () in
  let key p = match p.Packet.payload with Packet.Tenant i -> Packet.tcp_flow_key i | _ -> 0 in
  check_int "same tuple same key" (key a) (key b)

(* an int field of a flow key: mostly small, else near a word boundary
   where the runtime's hash folds high bits in (2^31, 2^32, 2^62) or
   negative *)
let flow_field_gen ~nonneg =
  let open QCheck.Gen in
  let near =
    map2
      (fun base d -> base + d)
      (oneofl
         ([ 0; 1 lsl 31; 1 lsl 32; max_int ]
         @ if nonneg then [] else [ -(1 lsl 31); -(1 lsl 32); min_int; -1 ]))
      (int_range (-3) 3)
  in
  let v = frequency [ (2, int_bound 65_535); (3, near); (1, int) ] in
  if nonneg then map (fun x -> if x < 0 then x land max_int else x) v else v

let prop_flow_key_matches_tuple_hash =
  (* [tcp_flow_key] mixes the five ints itself, and must equal hashing
     the plain 5-tuple with [Hashtbl.hash]: the key values feed ECMP
     port choices, so this equality is what keeps digests stable.  The
     fields reach past 2^31, 2^32 and [max_int], and ports and subflows
     go negative, where the runtime folds a value's high word. *)
  let field = flow_field_gen ~nonneg:false and addr = flow_field_gen ~nonneg:true in
  QCheck.Test.make ~name:"flow key equals tuple hash" ~count:2000
    QCheck.(
      make
        ~print:(fun (src, dst, (sp, dp), subflow) ->
          Printf.sprintf "src %d dst %d ports %d %d subflow %d" src dst sp dp subflow)
        Gen.(quad addr addr (pair field field) field))
    (fun (src, dst, (sp, dp), subflow) ->
      let seg = { (mk_seg ()) with Packet.src_port = sp; dst_port = dp; subflow } in
      let pkt =
        Packet.make_tenant ~src:(Addr.of_int src) ~dst:(Addr.of_int dst) ~seg
      in
      match pkt.Packet.payload with
      | Packet.Tenant inner ->
        Packet.tcp_flow_key inner = Hashtbl.hash (src, dst, sp, dp, subflow)
        && Packet.tcp_flow_key_rev inner = Hashtbl.hash (dst, src, dp, sp, subflow)
      | _ -> false)

(* ------------------------------- Ecmp_hash ------------------------ *)

let test_hash_deterministic () =
  let h1 = Ecmp_hash.hash_tuple ~seed:1 (1, 2, 3, 4) in
  let h2 = Ecmp_hash.hash_tuple ~seed:1 (1, 2, 3, 4) in
  check_int "deterministic" h1 h2;
  check_bool "seed matters" true (h1 <> Ecmp_hash.hash_tuple ~seed:2 (1, 2, 3, 4));
  check_bool "tuple matters" true (h1 <> Ecmp_hash.hash_tuple ~seed:1 (1, 2, 3, 5))

let test_hash_spreads_ports () =
  (* varying just the source port must spread over all next hops: this is
     the property Clove's indirect source routing depends on *)
  let pkt = mk_data () in
  let counts = Array.make 4 0 in
  for port = 50000 to 50999 do
    let pkt = { pkt with Packet.encap = None } in
    let pkt = encapsulate pkt ~src_port:port ~src:0 ~dst:1 in
    let i = Ecmp_hash.select ~seed:7 pkt ~n:4 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter (fun c -> check_bool "each next hop used" true (c > 150)) counts

let prop_hash_in_range =
  QCheck.Test.make ~name:"select stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 16))
    (fun (port, n) ->
      let pkt = encapsulate (mk_data ()) ~src_port:(abs port) ~src:0 ~dst:1 in
      let i = Ecmp_hash.select ~seed:3 pkt ~n in
      i >= 0 && i < n)

(* ---------------------------------- Dre --------------------------- *)

let test_dre_tracks_rate () =
  let sched = Scheduler.create () in
  let dre = Dre.create ~rate_bps:10e9 sched in
  (* send at exactly line rate for 300 us: utilization should approach 1 *)
  let pkt_bytes = 1250 in
  let interval = Sim_time.ns (pkt_bytes * 8 / 10) in
  (* 1250B at 10Gbps = 1us *)
  for i = 0 to 299 do
    Scheduler.schedule_at sched
      ~time:(Sim_time.of_ns (i * Sim_time.span_ns interval))
      (fun () -> Dre.observe dre ~bytes_len:pkt_bytes)
  done;
  Scheduler.run sched;
  let u = Dre.utilization dre in
  check_bool "near line rate" true (u > 0.8 && u < 1.3)

let test_dre_decays_when_idle () =
  let sched = Scheduler.create () in
  let dre = Dre.create ~rate_bps:10e9 sched in
  Dre.observe dre ~bytes_len:100_000;
  Scheduler.schedule sched ~after:(Sim_time.ms 10) (fun () -> ());
  Scheduler.run sched;
  check_bool "decayed to ~0" true (Dre.utilization dre < 0.01)

(* ------------------------------- Pkt_queue ------------------------ *)

(* the queue holds no packets: the frames it admits leave its link in
   admission order, and its occupancy counts the ones not yet started *)
let test_queue_fifo () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:10e9 ~prop_delay:Sim_time.zero_span () in
  let got = ref [] in
  Link.set_sink link (fun p -> got := p :: !got);
  let a = mk_data () and b = mk_data () and c = mk_data () in
  List.iter (Link.send link) [ a; b; c ];
  check_int "len: all but the serializing frame" 2 (Pkt_queue.length (Link.queue link));
  Scheduler.run sched;
  check_int "empty" 0 (Pkt_queue.length (Link.queue link));
  match List.rev !got with
  | [ pa; pb; pc ] ->
    check_bool "fifo" true (pa == a);
    check_bool "then the second" true (pb == b);
    check_bool "then the third" true (pc == c)
  | _ -> Alcotest.fail "expected three deliveries"

let test_queue_drop_tail () =
  let q = Pkt_queue.create ~capacity_pkts:2 ~ecn_threshold_pkts:0 () in
  check_bool "ok" true (Pkt_queue.admit q (mk_data ()));
  check_bool "ok" true (Pkt_queue.admit q (mk_data ()));
  check_bool "dropped" false (Pkt_queue.admit q (mk_data ()));
  check_int "drop counted" 1 (Pkt_queue.stats q).Pkt_queue.dropped

let test_queue_ecn_marking () =
  let q = Pkt_queue.create ~capacity_pkts:100 ~ecn_threshold_pkts:3 () in
  let pkts = List.init 6 (fun _ ->
      let p = mk_data () in
      p.Packet.ecn <- Packet.Ect;
      p)
  in
  List.iter (fun p -> ignore (Pkt_queue.admit q p)) pkts;
  let marked = List.filter (fun p -> p.Packet.ecn = Packet.Ce) pkts in
  (* occupancy after enqueue exceeds 3 for packets 4..6 *)
  check_int "marks" 3 (List.length marked);
  check_int "stat" 3 (Pkt_queue.stats q).Pkt_queue.marked

let test_queue_no_mark_not_ect () =
  let q = Pkt_queue.create ~capacity_pkts:100 ~ecn_threshold_pkts:1 () in
  let pkts = List.init 4 (fun _ -> mk_data ()) in
  List.iter (fun p -> ignore (Pkt_queue.admit q p)) pkts;
  check_int "non-ECT never marked" 0 (Pkt_queue.stats q).Pkt_queue.marked

let test_queue_drop_accounting () =
  let q = Pkt_queue.create ~capacity_pkts:2 ~ecn_threshold_pkts:0 () in
  let a = mk_data () and b = mk_data () and c = mk_data ~payload:500 () in
  ignore (Pkt_queue.admit q a);
  ignore (Pkt_queue.admit q b);
  check_bool "third dropped" false (Pkt_queue.admit q c);
  let st = Pkt_queue.stats q in
  check_int "dropped bytes = dropped packet size" c.Packet.size
    st.Pkt_queue.dropped_bytes;
  check_int "max occupancy seen at the drop" 2 st.Pkt_queue.max_occupancy;
  (* the cached length stays in lockstep with the queue through a full
     drain-and-refill cycle *)
  check_int "len after drop" 2 (Pkt_queue.length q);
  Pkt_queue.leave q;
  check_int "len after leave" 1 (Pkt_queue.length q);
  Pkt_queue.leave q;
  check_int "empty again" 0 (Pkt_queue.length q);
  check_bool "accepts after drain" true (Pkt_queue.admit q (mk_data ()));
  check_int "admitted" 3 (Pkt_queue.stats q).Pkt_queue.enqueued

(* ------------------------------ Packet_pool ----------------------- *)

let test_pool_recycles () =
  Packet_pool.reset_stats ();
  let acquire seq =
    Packet_pool.acquire_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1)
      ~conn_id:7 ~subflow:0 ~src_port:1000 ~dst_port:80 ~seq ~ack:0
      ~kind:Packet.Data ~payload:1400 ~ece:false
  in
  let a = mk_data () in
  Packet_pool.release a;
  let b = acquire 33 in
  check_bool "physically reused" true (a == b);
  check_int "size recomputed" (1400 + Packet.inner_header_bytes) b.Packet.size;
  (match b.Packet.payload with
  | Packet.Tenant inner ->
    check_int "inner dst reset" 1 (Addr.to_int inner.Packet.dst);
    check_int "seg seq reset" 33 inner.Packet.seg.Packet.seq
  | _ -> Alcotest.fail "expected tenant payload");
  check_bool "no stale encap" true (b.Packet.encap = None);
  let st = Packet_pool.stats () in
  check_int "one hit" 1 st.Packet_pool.hits

let test_pool_double_release_ignored () =
  Packet_pool.reset_stats ();
  let a = mk_data () in
  Packet_pool.release a;
  Packet_pool.release a;
  let b =
    Packet_pool.acquire_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1)
      ~conn_id:1 ~subflow:0 ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
      ~kind:Packet.Data ~payload:10 ~ece:false
  in
  let c =
    Packet_pool.acquire_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1)
      ~conn_id:1 ~subflow:0 ~src_port:1 ~dst_port:2 ~seq:0 ~ack:0
      ~kind:Packet.Data ~payload:10 ~ece:false
  in
  (* the second release was a no-op, so only one of the two acquires can
     be satisfied from the free list — never the same record twice *)
  check_bool "no aliasing" true (not (b == c));
  let st = Packet_pool.stats () in
  check_int "exactly one hit" 1 st.Packet_pool.hits;
  check_int "second acquire missed" 1 st.Packet_pool.misses

let prop_pool_model =
  (* model check against the non-pooled constructor: every acquire must be
     indistinguishable from a fresh [Packet.make_tenant] but physically
     distinct from it; releases feed the free list exactly once (double
     releases are no-ops); live packets never alias; the per-domain cap
     holds.  The free list is [Domain.DLS]-persistent across test cases,
     so all free-list assertions are relative (before/after deltas). *)
  QCheck.Test.make ~name:"pool acquire/release model" ~count:100
    QCheck.(small_list (pair bool small_nat))
    (fun ops ->
      Packet_pool.reset_stats ();
      let live = ref [] and dead = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (is_acquire, v) ->
          check ((Packet_pool.stats ()).Packet_pool.pooled <= 8192);
          if is_acquire then begin
            let src = Addr.of_int (v land 7)
            and dst = Addr.of_int (8 + (v land 7)) in
            let conn_id = v land 1023 and subflow = v land 3 in
            let src_port = 1000 + (v land 63) and dst_port = 80 in
            let seq = v and ack = v asr 1 in
            let payload = 1 + (v land 2047) and ece = v land 1 = 1 in
            let p =
              Packet_pool.acquire_tenant ~src ~dst ~conn_id ~subflow
                ~src_port ~dst_port ~seq ~ack ~kind:Packet.Data ~payload ~ece
            in
            let r =
              Packet.make_tenant ~src ~dst
                ~seg:
                  {
                    Packet.conn_id;
                    subflow;
                    src_port;
                    dst_port;
                    seq;
                    ack;
                    kind = Packet.Data;
                    payload;
                    ece;
                  }
            in
            check (p.Packet.size = r.Packet.size);
            check (p.Packet.ttl = r.Packet.ttl);
            check (p.Packet.ecn = r.Packet.ecn);
            check (p.Packet.encap = None && p.Packet.conga = None);
            check (p.Packet.int_enabled = r.Packet.int_enabled);
            check (p.Packet.int_util = r.Packet.int_util);
            check (p.Packet.sent_at = r.Packet.sent_at);
            check (p.Packet.audit_seq = r.Packet.audit_seq);
            (match (p.Packet.payload, r.Packet.payload) with
            | Packet.Tenant pi, Packet.Tenant ri ->
              check (pi.Packet.src = ri.Packet.src);
              check (pi.Packet.dst = ri.Packet.dst);
              check (pi.Packet.inner_ecn = ri.Packet.inner_ecn);
              check (pi.Packet.seg = ri.Packet.seg)
            | _ -> check false);
            check (p != r);
            check (not (List.exists (fun q -> q == p) !live));
            (* a recycled record is live again — releasing it now would be
               a first release, not a double one *)
            dead := List.filter (fun q -> not (q == p)) !dead;
            live := p :: !live
          end
          else if v land 1 = 1 && !dead <> [] then begin
            (* double release: already returned once, must be a no-op *)
            let before = (Packet_pool.stats ()).Packet_pool.pooled in
            Packet_pool.release (List.hd !dead);
            check ((Packet_pool.stats ()).Packet_pool.pooled = before)
          end
          else
            match !live with
            | [] -> ()
            | l ->
              let i = v mod List.length l in
              let p = List.nth l i in
              live := List.filteri (fun j _ -> j <> i) l;
              dead := p :: !dead;
              let st0 = Packet_pool.stats () in
              Packet_pool.release p;
              let st1 = Packet_pool.stats () in
              (* either pooled for reuse or dropped at the cap — never both,
                 never neither *)
              check
                (st1.Packet_pool.pooled = st0.Packet_pool.pooled + 1
                 && st1.Packet_pool.dropped = st0.Packet_pool.dropped
                || st1.Packet_pool.pooled = st0.Packet_pool.pooled
                   && st1.Packet_pool.dropped = st0.Packet_pool.dropped + 1))
        ops;
      !ok)

(* ---------------------------------- Link -------------------------- *)

let test_link_delivers_with_latency () =
  let sched = Scheduler.create () in
  let link =
    Link.create ~sched ~rate_bps:10e9 ~prop_delay:(Sim_time.us 5) ()
  in
  let arrived = ref Sim_time.zero in
  Link.set_sink link (fun _ -> arrived := Scheduler.now sched);
  let pkt = mk_data () in
  (* 1440B at 10G = 1.152us tx + 5us prop *)
  Link.send link pkt;
  Scheduler.run sched;
  check_int "arrival time" 6_152 (Sim_time.to_ns !arrived)

let test_link_serializes () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:10e9 ~prop_delay:Sim_time.zero_span () in
  let arrivals = ref [] in
  Link.set_sink link (fun p -> arrivals := (p, Sim_time.to_ns (Scheduler.now sched)) :: !arrivals);
  let a = mk_data () and b = mk_data () in
  Link.send link a;
  Link.send link b;
  Scheduler.run sched;
  match List.rev !arrivals with
  | [ (pa, ta); (pb, tb) ] ->
    check_bool "first" true (pa == a);
    check_bool "second" true (pb == b);
    check_bool "b after a by one tx time" true (tb - ta >= 1_152)
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_down_drops () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:10e9 ~prop_delay:Sim_time.zero_span () in
  let got = ref 0 in
  Link.set_sink link (fun _ -> incr got);
  Link.set_up link false;
  Link.send link (mk_data ());
  Scheduler.run sched;
  check_int "nothing delivered" 0 !got;
  check_int "down drop counted" 1 (Link.down_drops link);
  Link.set_up link true;
  Link.send link (mk_data ());
  Scheduler.run sched;
  check_int "delivered after restore" 1 !got

(* a link that fails and recovers within one frame loses that frame and
   still serializes one frame at a time: the four sent after the flap
   wait for the lost one's 1152 ns to run out, then go back to back *)
let test_link_flap_loses_serializing_frame () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:10e9 ~prop_delay:(Sim_time.us 1) () in
  let arrivals = ref [] in
  Link.set_sink link (fun _ -> arrivals := Sim_time.to_ns (Scheduler.now sched) :: !arrivals);
  let at ns f = Scheduler.schedule_at sched ~time:(Sim_time.of_ns ns) f in
  Link.send link (mk_data ());
  at 100 (fun () -> Link.set_up link false);
  at 200 (fun () -> Link.set_up link true);
  at 300 (fun () ->
      for _ = 1 to 4 do
        Link.send link (mk_data ())
      done);
  Scheduler.run sched;
  check_int "the serializing frame is lost" 1 (Link.down_drops link);
  Alcotest.(check (list int)) "the rest, one serializer" [ 3_304; 4_456; 5_608; 6_760 ]
    (List.rev !arrivals)

(* a link keeps no transmit-done event: N frames sent back to back fire
   N events, their deliveries *)
let test_link_one_event_per_frame () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:10e9 ~prop_delay:(Sim_time.us 1) () in
  let got = ref 0 in
  Link.set_sink link (fun _ -> incr got);
  let n = 10 in
  for _ = 1 to n do
    Link.send link (mk_data ())
  done;
  Scheduler.run sched;
  check_int "delivered" n !got;
  check_int "events" n (Scheduler.events_fired sched);
  check_int "tx packets" n (Link.tx_packets link)

(* A link memoizes a frame length's serialization time; a brownout set
   and cleared while frames queue must still re-time each frame at the
   rate in force at its start.  Nine frames queue at 0 on a 10 Gbit/s
   link with no propagation delay: six of 1440 B (the second starts
   before the brownout at 2000 ns, the third after it, the fifth before
   the clear at 7000 ns, the sixth after), then two of 740 B (a new
   length after a run of equal ones) and one of 1440 B again. *)
let test_link_memo_follows_rate () =
  let sched = Scheduler.create () in
  let rate = 10e9 in
  let link = Link.create ~sched ~rate_bps:rate ~prop_delay:Sim_time.zero_span () in
  let departures = ref [] in
  Link.set_sink link (fun _ -> departures := Sim_time.to_ns (Scheduler.now sched) :: !departures);
  let frames = [ 1440; 1440; 1440; 1440; 1440; 1440; 740; 740; 1440 ] in
  List.iter
    (fun bytes -> Link.send link (mk_data ~payload:(bytes - Packet.inner_header_bytes) ()))
    frames;
  Scheduler.schedule_at sched ~time:(Sim_time.of_ns 2000) (fun () ->
      Link.set_brownout link ~capacity_frac:0.5 ~loss_prob:0.0 ~rng:(Rng.create 1));
  Scheduler.schedule_at sched ~time:(Sim_time.of_ns 7000) (fun () ->
      Link.clear_brownout link);
  Scheduler.run sched;
  (* the rate at each frame's start, from the start instants 0, 1152,
     2304 (browned out), 4608, 6912, 9216 (cleared), ... *)
  let fracs = [ 1.0; 1.0; 0.5; 0.5; 0.5; 1.0; 1.0; 1.0; 1.0 ] in
  let want =
    List.rev
      (snd
         (List.fold_left2
            (fun (start, acc) bytes frac ->
              let tx = Sim_time.tx_time ~bytes_len:bytes ~rate_bps:(rate *. frac) in
              let depart = start + Sim_time.span_ns tx in
              (depart, depart :: acc))
            (0, []) frames fracs))
  in
  Alcotest.(check (list int)) "departures" want (List.rev !departures);
  Alcotest.(check (list int)) "the start instants the rates assume"
    [ 1152; 2304; 4608; 6912; 9216 ]
    (List.filteri (fun i _ -> i < 5) want)

(* A link goes down while its one ring holds all three sections, after
   the ring wrapped and grew past its 32 initial slots: 4 departed
   frames on a 20 us wire, 1 serializing, 35 queued.  The queued frames
   are dropped at once and counted in the queue's stats, the serializing
   one is lost at its departure, and each departed frame arrives iff
   the link is up at its delivery instant. *)
let test_link_down_three_sections () =
  let sched = Scheduler.create () in
  let link = Link.create ~sched ~rate_bps:10e9 ~prop_delay:(Sim_time.us 20) () in
  let got = ref [] in
  Link.set_sink link (fun p -> got := p.Packet.audit_seq :: !got);
  let at ns f = Scheduler.schedule_at sched ~time:(Sim_time.of_ns ns) f in
  let send_range lo hi =
    for i = lo to hi do
      let pkt = mk_data () in
      pkt.Packet.audit_seq <- i;
      Link.send link pkt
    done
  in
  let size = (mk_data ()).Packet.size in
  (* 20 frames move the ring's head, so the next 40 wrap, then grow it *)
  send_range 0 19;
  at 50_000 (fun () -> send_range 20 59);
  (* frames 20..23 departed at 51152 + k * 1152, 24 departs at 55760 *)
  at 55_500 (fun () ->
      check_int "tx before" 25 (Link.tx_packets link);
      check_int "in flight before" 40 (Link.in_flight link);
      Link.set_up link false;
      let st = Pkt_queue.stats (Link.queue link) in
      check_int "queued frames dropped" 35 (Link.down_drops link);
      check_int "counted in the queue" 35 st.Pkt_queue.dropped;
      check_int "their bytes" (35 * size) st.Pkt_queue.dropped_bytes;
      check_int "queue empty" 0 (Pkt_queue.length (Link.queue link));
      check_int "departed and serializing in flight" 5 (Link.in_flight link));
  at 60_000 (fun () ->
      check_int "serializing frame lost at its departure" 36 (Link.down_drops link);
      check_int "departed in flight" 4 (Link.in_flight link);
      check_int "no frame started while down" 25 (Link.tx_packets link));
  (* deliveries at 71152, 72304 (down: lost), 73456, 74608 (up) *)
  at 72_900 (fun () -> Link.set_up link true);
  at 80_000 (fun () -> send_range 60 62);
  Scheduler.run sched;
  Alcotest.(check (list int))
    "delivered" (List.init 20 Fun.id @ [ 22; 23; 60; 61; 62 ]) (List.rev !got);
  check_int "down drops" 38 (Link.down_drops link);
  check_int "tx packets" 28 (Link.tx_packets link);
  check_int "in flight at the end" 0 (Link.in_flight link)

(* ----------------- lazy serializer vs event-driven model ---------- *)

(* The event-driven serializer a link once was: a transmit-done event
   per frame, keyed (T, S, rank), that takes the verdict, schedules the
   delivery and starts the next frame.  The lazy [Link] must match it
   event for event. *)
type model = {
  m_sched : Scheduler.t;
  m_rate : float;
  m_prop_ns : int;
  m_queue : Pkt_queue.t; (* admission only *)
  m_fifo : Packet.t Queue.t; (* the queued frames *)
  m_dre : Dre.t;
  mutable m_serializing : Packet.t option;
  mutable m_corrupted : bool;
  mutable m_up : bool;
  mutable m_brownout : (float * float * Rng.t) option;
  mutable m_down : int;
  mutable m_brownout_drops : int;
  mutable m_overflow : int;
  mutable m_k_txdone : int;
  mutable m_k_deliver : int;
  m_wire : Packet.t Queue.t;
  mutable m_delivered : (int * int * bool) list; (* (ns, id, CE), newest first *)
}

let model_rate m =
  match m.m_brownout with None -> m.m_rate | Some (frac, _, _) -> m.m_rate *. frac

let model_start_tx m =
  if not (Queue.is_empty m.m_fifo) then begin
    let pkt = Queue.pop m.m_fifo in
    Pkt_queue.leave m.m_queue;
    m.m_serializing <- Some pkt;
    Dre.observe m.m_dre ~bytes_len:pkt.Packet.size;
    Scheduler.schedule_tag m.m_sched
      ~after:(Sim_time.tx_time ~bytes_len:pkt.Packet.size ~rate_bps:(model_rate m))
      ~kind:m.m_k_txdone ~arg:0
  end

let model_txdone m =
  (match m.m_serializing with
   | None -> assert false
   | Some pkt ->
     m.m_serializing <- None;
     let lost_on_wire () =
       match m.m_brownout with
       | Some (_, loss, rng) -> loss > 0.0 && Rng.float rng 1.0 < loss
       | None -> false
     in
     if m.m_corrupted then begin
       m.m_corrupted <- false;
       m.m_down <- m.m_down + 1
     end
     else if lost_on_wire () then m.m_brownout_drops <- m.m_brownout_drops + 1
     else begin
       let now = Sim_time.to_ns (Scheduler.now m.m_sched) in
       Queue.push pkt m.m_wire;
       Scheduler.inject_tag m.m_sched ~time_ns:(now + m.m_prop_ns) ~born_ns:now
         ~kind:m.m_k_deliver ~arg:0
     end);
  model_start_tx m

let model_deliver m =
  let pkt = Queue.pop m.m_wire in
  if m.m_up then
    m.m_delivered <-
      ( Sim_time.to_ns (Scheduler.now m.m_sched),
        pkt.Packet.audit_seq,
        pkt.Packet.ecn = Packet.Ce )
      :: m.m_delivered
  else m.m_down <- m.m_down + 1

let model_create sched ~rate ~prop_ns ~queue =
  let m =
    {
      m_sched = sched;
      m_rate = rate;
      m_prop_ns = prop_ns;
      m_queue = queue;
      m_fifo = Queue.create ();
      m_dre = Dre.create ~rate_bps:rate sched;
      m_serializing = None;
      m_corrupted = false;
      m_up = true;
      m_brownout = None;
      m_down = 0;
      m_brownout_drops = 0;
      m_overflow = 0;
      m_k_txdone = -1;
      m_k_deliver = -1;
      m_wire = Queue.create ();
      m_delivered = [];
    }
  in
  let src = Scheduler.fresh_src () in
  m.m_k_txdone <- Scheduler.register_kind sched (fun _ -> model_txdone m);
  m.m_k_deliver <- Scheduler.register_kind sched (fun _ -> model_deliver m);
  Scheduler.set_kind_src sched ~kind:m.m_k_txdone ~src;
  Scheduler.set_kind_src sched ~kind:m.m_k_deliver ~src;
  m

let model_send m pkt =
  if m.m_up then begin
    if Pkt_queue.admit m.m_queue pkt then begin
      Queue.push pkt m.m_fifo;
      if m.m_serializing = None then model_start_tx m
    end
    else m.m_overflow <- m.m_overflow + 1
  end
  else begin
    m.m_down <- m.m_down + 1;
    Pkt_queue.count_drop m.m_queue pkt
  end

let model_set_up m v =
  m.m_up <- v;
  if not v then begin
    Queue.iter
      (fun pkt ->
        m.m_down <- m.m_down + 1;
        Pkt_queue.leave m.m_queue;
        Pkt_queue.count_drop m.m_queue pkt)
      m.m_fifo;
    Queue.clear m.m_fifo;
    if m.m_serializing <> None then m.m_corrupted <- true
  end

type op =
  | Send of int (* frame bytes *)
  | Set_up of bool
  | Brownout of float * float (* capacity fraction, loss *)
  | Clear_brownout
  | Sample

(* (time, born, ranked after the link, op) on a 100 ns grid: 10 Gbit/s
   serializes these frame sizes in whole multiples of 100 ns, at full or
   reduced rate, so sends and flips tie exactly with departures *)
let op_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (8, map (fun b -> Send b) (oneofl [ 125; 625; 1250; 1500 ]));
        (1, map (fun v -> Set_up v) bool);
        (1, map2 (fun f l -> Brownout (f, l)) (oneofl [ 0.5; 0.25; 1.0 ]) (oneofl [ 0.0; 0.3 ]));
        (1, return Clear_brownout);
        (2, return Sample);
      ]
  in
  int_range 0 200 >>= fun t ->
  int_range 0 t >>= fun b ->
  bool >>= fun after ->
  op >>= fun o -> return (t * 100, b * 100, after, o)

let serializer_gen =
  QCheck.Gen.(pair (oneofl [ 0; 1_000; 5_000 ]) (list_size (int_range 1 60) op_gen))

let show_op = function
  | Send b -> Printf.sprintf "send %d" b
  | Set_up v -> Printf.sprintf "up %b" v
  | Brownout (f, l) -> Printf.sprintf "brownout %g %g" f l
  | Clear_brownout -> "clear"
  | Sample -> "sample"

let print_case (prop, ops) =
  Printf.sprintf "prop %d: %s" prop
    (String.concat "; "
       (List.map
          (fun (t, b, after, o) -> Printf.sprintf "%d/%d%s %s" t b (if after then "+" else "") (show_op o))
          ops))

(* run [ops] against both, in one scheduler; each op fires as a timer
   keyed (time, born, rank), the rank drawn before or after both *)
let run_serializers (prop_ns, ops) =
  let sched = Scheduler.create () in
  let before = Scheduler.fresh_src () in
  let mk_queue () = Pkt_queue.create ~capacity_pkts:6 ~ecn_threshold_pkts:3 () in
  let queue = mk_queue () in
  let link =
    Link.create ~sched ~rate_bps:10e9 ~prop_delay:(Sim_time.span_of_ns prop_ns) ~queue ()
  in
  let delivered = ref [] in
  Link.set_sink link (fun pkt ->
      delivered :=
        (Sim_time.to_ns (Scheduler.now sched), pkt.Packet.audit_seq, pkt.Packet.ecn = Packet.Ce)
        :: !delivered);
  let m = model_create sched ~rate:10e9 ~prop_ns ~queue:(mk_queue ()) in
  let after = Scheduler.fresh_src () in
  let samples = ref [] and model_samples = ref [] in
  let frame i bytes =
    let pkt = mk_data ~payload:(bytes - Packet.inner_header_bytes) () in
    pkt.Packet.ecn <- Packet.Ect;
    pkt.Packet.audit_seq <- i;
    pkt
  in
  (* a brownout's stream is seeded by its op, not its index, so a
     shrunk case keeps its draws *)
  let apply i (t, b, _, o) =
    match o with
    | Send bytes ->
      Link.send link (frame i bytes);
      model_send m (frame i bytes)
    | Set_up v ->
      Link.set_up link v;
      model_set_up m v
    | Brownout (capacity_frac, loss_prob) ->
      Link.set_brownout link ~capacity_frac ~loss_prob ~rng:(Rng.create (t + b));
      m.m_brownout <- Some (capacity_frac, loss_prob, Rng.create (t + b))
    | Clear_brownout ->
      Link.clear_brownout link;
      m.m_brownout <- None
    | Sample ->
      samples := Int64.bits_of_float (Link.utilization link) :: !samples;
      model_samples := Int64.bits_of_float (Dre.utilization m.m_dre) :: !model_samples
  in
  List.iteri
    (fun i ((t, b, ranked_after, _) as op) ->
      let src = if ranked_after then after else before in
      let tm = Scheduler.timer sched ~src ~arg:i (fun i -> apply i op) in
      Scheduler.schedule_at sched ~time:(Sim_time.of_ns b) (fun () ->
          Scheduler.arm sched tm ~after:(Sim_time.span_of_ns (t - b))))
    ops;
  Scheduler.run sched;
  let st = Pkt_queue.stats (Link.queue link) and mst = Pkt_queue.stats m.m_queue in
  ( (!delivered, !samples),
    (m.m_delivered, !model_samples),
    [
      ("down drops", Link.down_drops link, m.m_down);
      ("brownout drops", Link.brownout_drops link, m.m_brownout_drops);
      ("overflow drops", Link.overflow_drops link, m.m_overflow);
      ("marks", st.Pkt_queue.marked, mst.Pkt_queue.marked);
      ("max occupancy", st.Pkt_queue.max_occupancy, mst.Pkt_queue.max_occupancy);
      ("queue drops", st.Pkt_queue.dropped, mst.Pkt_queue.dropped);
      ("in flight", Link.in_flight link, 0);
    ] )

let prop_lazy_serializer_matches_events =
  QCheck.Test.make ~name:"lazy serializer matches the event-driven one" ~count:300
    (QCheck.make ~print:print_case
       ~shrink:(fun (prop, ops) -> QCheck.Iter.map (fun ops -> (prop, ops)) (QCheck.Shrink.list ops))
       serializer_gen)
    (fun case ->
      let (got, samples), (want, model_samples), counters = run_serializers case in
      List.iter
        (fun (what, a, b) ->
          if a <> b then QCheck.Test.fail_reportf "%s: link %d, model %d" what a b)
        counters;
      if got <> want then QCheck.Test.fail_reportf "deliveries differ";
      if samples <> model_samples then QCheck.Test.fail_reportf "utilization samples differ";
      true)

(* ---------------------------- Switch hop -------------------------- *)

(* host 1 -> switch -> host 2.  A 1440 B packet takes 1.152 us to
   serialize at 10 Gbit/s, then 1 us on the ingress wire: the wire
   delivers at D = 2152 ns and the switch forwards 250 ns later. *)
let deliver_ns = 2_152

let one_hop () =
  let sched = Scheduler.create () in
  let sw = Switch.create ~sched ~id:0 ~level:Switch.Leaf ~ecmp_seed:0 () in
  let link prop_delay = Link.create ~sched ~rate_bps:10e9 ~prop_delay () in
  let ingress = link (Sim_time.us 1) in
  let egress = link Sim_time.zero_span and back = link Sim_time.zero_span in
  let arrivals = ref [] in
  Link.set_sink egress (fun _ -> arrivals := Sim_time.to_ns (Scheduler.now sched) :: !arrivals);
  Link.set_sink back (fun _ -> ());
  let to_dst = Switch.add_port sw ~link:egress ~peer:2 ~parallel_index:0 in
  let from_src = Switch.add_port sw ~link:back ~peer:1 ~parallel_index:0 in
  Switch.set_routes sw (Addr.of_int 2) [| to_dst |];
  Switch.wire_ingress sw ~in_port:from_src ingress;
  Link.send ingress (mk_data ~src:1 ~dst:2 ());
  (sched, sw, ingress, arrivals)

let test_hop_one_event_each () =
  let sched, sw, _, arrivals = one_hop () in
  Scheduler.run sched;
  (* the ingress delivery into the switch and the egress delivery: no
     transmit-done and no switch event *)
  check_int "events" 2 (Scheduler.events_fired sched);
  check_int "switch received" 1 (Switch.rx_packets sw);
  Alcotest.(check (list int)) "arrival: D + 250 ns pipeline + 1152 ns egress"
    [ deliver_ns + 250 + 1_152 ] !arrivals

let set_up_at sched link ~ns v =
  Scheduler.schedule_at sched ~time:(Sim_time.of_ns ns) (fun () -> Link.set_up link v)

(* a packet on the ingress wire is lost iff the link was down at D, not
   at the later instant the switch takes it *)
let test_ingress_down_after_delivery () =
  let sched, sw, ingress, arrivals = one_hop () in
  set_up_at sched ingress ~ns:(deliver_ns + 100) false;
  Scheduler.run sched;
  check_int "forwarded" 1 (List.length !arrivals);
  check_int "no down drop" 0 (Link.down_drops ingress);
  check_int "switch received" 1 (Switch.rx_packets sw)

let test_ingress_down_across_delivery () =
  let sched, sw, ingress, arrivals = one_hop () in
  set_up_at sched ingress ~ns:(deliver_ns - 100) false;
  set_up_at sched ingress ~ns:(deliver_ns + 100) true;
  Scheduler.run sched;
  check_int "dropped" 0 (List.length !arrivals);
  check_int "down drops" 1 (Link.down_drops ingress);
  check_int "switch received nothing" 0 (Switch.rx_packets sw)

let test_ingress_down_at_delivery () =
  let sched, _, ingress, arrivals = one_hop () in
  set_up_at sched ingress ~ns:deliver_ns false;
  Scheduler.run sched;
  check_int "dropped" 0 (List.length !arrivals);
  check_int "down drops" 1 (Link.down_drops ingress)

(* ------------------------- Topology and routing ------------------- *)

(* one pod, no cores: the paper's 2-leaf, 2-spine testbed with 2
   parallel links per leaf-spine pair (2 hosts per leaf) *)
let small_leaf_spine () =
  Topology.clos ~pods:1 ~leaves_per_pod:2 ~spines_per_pod:2 ~cores:0
    ~hosts_per_leaf:2 ~parallel:2 ~host_rate_bps:10e9 ~fabric_rate_bps:20e9
    ~core_rate_bps:20e9 ~delay:(Sim_time.us 2)

let test_leaf_spine_shape () =
  let ls = small_leaf_spine () in
  let topo = ls.Topology.topo in
  check_int "nodes: 4 hosts + 4 switches" 8 (Topology.node_count topo);
  (* 4 host links + 2 leaves x 2 spines x 2 parallel = 12 edges *)
  check_int "edges" 12 (List.length (Topology.edges topo));
  let leaf = ls.Topology.leaf_ids.(0) in
  check_int "leaf neighbors: 2 hosts + 2 spines" 4
    (List.length (Topology.live_neighbors topo leaf))

(* Node and edge ids seed every link, switch port and hash, so this
   order is what every 2-tier digest rests on: leaves 0-1, spines 2-3,
   hosts 4-7; host links leaf by leaf, then each leaf's bundles spine by
   spine. *)
let test_leaf_spine_edge_order () =
  let ls = small_leaf_spine () in
  Alcotest.(check (array int)) "leaves" [| 0; 1 |] ls.Topology.leaf_ids;
  Alcotest.(check (array int)) "spines" [| 2; 3 |] ls.Topology.spine_ids;
  check_int "no cores" 0 (Array.length ls.Topology.core_ids);
  Alcotest.(check (list (list int)))
    "(a, b, bundle_index) in edge_id order"
    [
      [ 4; 0; 0 ]; [ 5; 0; 0 ]; [ 6; 1; 0 ]; [ 7; 1; 0 ];
      [ 0; 2; 0 ]; [ 0; 2; 1 ]; [ 0; 3; 0 ]; [ 0; 3; 1 ];
      [ 1; 2; 0 ]; [ 1; 2; 1 ]; [ 1; 3; 0 ]; [ 1; 3; 1 ];
    ]
    (List.mapi
       (fun i (e : Topology.edge) ->
         check_int "edge_id" i e.Topology.edge_id;
         [ e.Topology.a; e.Topology.b; e.Topology.bundle_index ])
       (Topology.edges ls.Topology.topo))

let test_routing_host_to_host () =
  let ls = small_leaf_spine () in
  let topo = ls.Topology.topo in
  let dst = ls.Topology.host_ids.(1).(0) in
  let nh = Routing.next_hops topo ~dst in
  let src_leaf = ls.Topology.leaf_ids.(0) in
  let hops = Int_table.find_default nh src_leaf [] in
  (* from the source leaf both spines are equal-cost next hops *)
  check_int "two spine next-hops" 2 (List.length hops);
  let src_host = ls.Topology.host_ids.(0).(0) in
  check_int "host goes to its leaf" 1 (List.length (Int_table.find_default nh src_host []))

let test_routing_avoids_failed () =
  let ls = small_leaf_spine () in
  let topo = ls.Topology.topo in
  let l2 = ls.Topology.leaf_ids.(1) and s2 = ls.Topology.spine_ids.(1) in
  (* fail BOTH parallel links l2-s2: s2 must vanish from next hops toward
     hosts behind l2 *)
  (match Topology.find_edge topo ~a:l2 ~b:s2 ~bundle_index:0 with
  | Some e -> Topology.fail_edge topo e
  | None -> Alcotest.fail "edge missing");
  (match Topology.find_edge topo ~a:l2 ~b:s2 ~bundle_index:1 with
  | Some e -> Topology.fail_edge topo e
  | None -> Alcotest.fail "edge missing");
  let dst = ls.Topology.host_ids.(1).(0) in
  let nh = Routing.next_hops topo ~dst in
  let hops = Int_table.find_default nh ls.Topology.leaf_ids.(0) [] in
  check_int "only one spine remains" 1 (List.length hops);
  check_int "it is s1" ls.Topology.spine_ids.(0) (List.hd hops)

let test_no_routing_through_hosts () =
  (* two hosts on one leaf: the path between them must be via the leaf,
     never via another host *)
  let ls = small_leaf_spine () in
  let topo = ls.Topology.topo in
  let dst = ls.Topology.host_ids.(0).(0) in
  let nh = Routing.next_hops topo ~dst in
  let other_host = ls.Topology.host_ids.(0).(1) in
  let hops = Int_table.find_default nh other_host [] in
  Alcotest.(check (list int)) "via leaf" [ ls.Topology.leaf_ids.(0) ] hops

(* --------------------------------- Fabric ------------------------- *)

let build_fabric ?(config = Fabric.default_config) () =
  let sched = Scheduler.create () in
  let ls = small_leaf_spine () in
  let fabric = Fabric.create ~sched ~config ls.Topology.topo in
  Fabric.program_routes fabric;
  (sched, ls, fabric)

let test_fabric_end_to_end () =
  let sched, ls, fabric = build_fabric () in
  let src = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(0).(0)) in
  let dst = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(1).(1)) in
  let got = ref 0 in
  Host.set_handler dst (fun _ -> incr got);
  for _ = 1 to 10 do
    Host.send src (mk_data ~src:(Host.id src) ~dst:(Host.id dst) ())
  done;
  Scheduler.run sched;
  check_int "all delivered" 10 !got

let test_fabric_ecmp_spreads_encap_ports () =
  let sched, ls, fabric = build_fabric () in
  let src = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(0).(0)) in
  let dst = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(1).(0)) in
  let got = ref 0 in
  Host.set_handler dst (fun _ -> incr got);
  for port = 50000 to 50199 do
    let pkt = mk_data ~src:(Host.id src) ~dst:(Host.id dst) () in
    Host.send src (encapsulate ~src_port:port pkt ~src:(Host.id src) ~dst:(Host.id dst))
  done;
  Scheduler.run sched;
  check_int "all delivered" 200 !got;
  (* both spines should have carried traffic *)
  Array.iter
    (fun sw ->
      if Switch.level sw = Switch.Spine then
        check_bool "spine used" true (Switch.rx_packets sw > 20))
    (Fabric.switches fabric)

let test_fabric_failure_reconvergence () =
  let sched, ls, fabric = build_fabric () in
  let topo = ls.Topology.topo in
  let l2 = ls.Topology.leaf_ids.(1) and s2 = ls.Topology.spine_ids.(1) in
  let edge =
    match Topology.find_edge topo ~a:l2 ~b:s2 ~bundle_index:1 with
    | Some e -> e
    | None -> Alcotest.fail "edge missing"
  in
  Fabric.fail_edge fabric edge;
  let src = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(0).(0)) in
  let dst = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(1).(0)) in
  let got = ref 0 in
  Host.set_handler dst (fun _ -> incr got);
  for port = 50000 to 50099 do
    let pkt = mk_data ~src:(Host.id src) ~dst:(Host.id dst) () in
    Host.send src (encapsulate ~src_port:port pkt ~src:(Host.id src) ~dst:(Host.id dst))
  done;
  Scheduler.run sched;
  (* no black hole: every packet still arrives over the remaining links *)
  check_int "all delivered after failure" 100 !got;
  Fabric.restore_edge fabric edge;
  for port = 51000 to 51099 do
    let pkt = mk_data ~src:(Host.id src) ~dst:(Host.id dst) () in
    Host.send src (encapsulate ~src_port:port pkt ~src:(Host.id src) ~dst:(Host.id dst))
  done;
  Scheduler.run sched;
  check_int "restored" 200 !got

let test_switch_ttl_expiry_answers_probe () =
  let sched, ls, fabric = build_fabric () in
  let src = Fabric.host_by_addr fabric (Addr.of_int ls.Topology.host_ids.(0).(0)) in
  let dst_id = ls.Topology.host_ids.(1).(0) in
  let replies = ref [] in
  Host.set_handler src (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Probe_reply r -> replies := r :: !replies
      | _ -> ());
  let probe ttl =
    let pkt =
      Packet.make ~ttl ~size:64
        (Packet.Probe
           {
             Packet.probe_id = ttl;
             probe_src = Host.addr src;
             probe_dst = Addr.of_int dst_id;
             probe_port = 50000;
           })
    in
    Host.send src (encapsulate ~src_port:50000 pkt ~src:(Host.id src) ~dst:dst_id)
  in
  probe 1;
  probe 2;
  probe 3;
  Scheduler.run sched;
  check_int "one reply per expired probe" 3 (List.length !replies);
  let hops =
    List.filter_map (fun r -> r.Packet.reply_hop) !replies
    |> List.map (fun h -> h.Packet.hop_node)
    |> List.sort_uniq compare
  in
  (* ttl 1 dies at the source leaf, 2 at a spine, 3 at the remote leaf *)
  check_int "three distinct hops" 3 (List.length hops)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "netsim"
    [
      ( "packet",
        [
          Alcotest.test_case "sizes" `Quick test_packet_sizes;
          Alcotest.test_case "route dst" `Quick test_packet_route_dst;
          Alcotest.test_case "flow key" `Quick test_flow_key_stability;
          qc prop_flow_key_matches_tuple_hash;
        ] );
      ( "ecmp_hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "spreads over ports" `Quick test_hash_spreads_ports;
          qc prop_hash_in_range;
        ] );
      ( "dre",
        [
          Alcotest.test_case "tracks rate" `Quick test_dre_tracks_rate;
          Alcotest.test_case "decays idle" `Quick test_dre_decays_when_idle;
        ] );
      ( "pkt_queue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drop tail" `Quick test_queue_drop_tail;
          Alcotest.test_case "ecn marking" `Quick test_queue_ecn_marking;
          Alcotest.test_case "non-ect unmarked" `Quick test_queue_no_mark_not_ect;
          Alcotest.test_case "drop accounting" `Quick test_queue_drop_accounting;
        ] );
      ( "packet_pool",
        [
          Alcotest.test_case "recycles released packets" `Quick test_pool_recycles;
          Alcotest.test_case "double release ignored" `Quick
            test_pool_double_release_ignored;
          qc prop_pool_model;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_delivers_with_latency;
          Alcotest.test_case "serialization" `Quick test_link_serializes;
          Alcotest.test_case "down drops" `Quick test_link_down_drops;
          Alcotest.test_case "flap loses the serializing frame" `Quick
            test_link_flap_loses_serializing_frame;
          Alcotest.test_case "N back-to-back frames fire N events" `Quick
            test_link_one_event_per_frame;
          Alcotest.test_case "down with departed, serializing and queued frames" `Quick
            test_link_down_three_sections;
          Alcotest.test_case "memoized tx time follows a brownout" `Quick
            test_link_memo_follows_rate;
          qc prop_lazy_serializer_matches_events;
        ] );
      ( "switch-hop",
        [
          Alcotest.test_case "one event per hop" `Quick test_hop_one_event_each;
          Alcotest.test_case "down after delivery forwards" `Quick
            test_ingress_down_after_delivery;
          Alcotest.test_case "down across delivery drops" `Quick
            test_ingress_down_across_delivery;
          Alcotest.test_case "down at delivery drops" `Quick test_ingress_down_at_delivery;
        ] );
      ( "topology+routing",
        [
          Alcotest.test_case "leaf-spine shape" `Quick test_leaf_spine_shape;
          Alcotest.test_case "leaf-spine edge order" `Quick test_leaf_spine_edge_order;
          Alcotest.test_case "host-to-host next hops" `Quick test_routing_host_to_host;
          Alcotest.test_case "avoids failed links" `Quick test_routing_avoids_failed;
          Alcotest.test_case "never via hosts" `Quick test_no_routing_through_hosts;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "end to end" `Quick test_fabric_end_to_end;
          Alcotest.test_case "ecmp spreads ports" `Quick test_fabric_ecmp_spreads_encap_ports;
          Alcotest.test_case "failure reconvergence" `Quick test_fabric_failure_reconvergence;
          Alcotest.test_case "ttl expiry probes" `Quick test_switch_ttl_expiry_answers_probe;
        ] );
    ]
