(* Tests for the deterministic fault-injection subsystem (lib/faults) and
   the Clove failure-recovery hardening it exercises: plan parsing, the
   engine's scheduler-driven execution, link brownout/down accounting,
   path-table aging and black-hole eviction, traceroute rediscovery under
   probe loss, and the same-seed replay determinism property. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

open Experiments

let plan_of spec =
  match Faults.Fault_plan.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %S: %s" spec e

let span_ms v = Sim_time.ms v

(* ----------------------------- Fault_plan -------------------------- *)

let test_span_of_string () =
  let ok s expect =
    match Faults.Fault_plan.span_of_string s with
    | Ok sp ->
      check_int (Printf.sprintf "span %S" s) 0
        (Sim_time.compare_span sp expect)
    | Error e -> Alcotest.failf "span %S: %s" s e
  in
  ok "60ms" (Sim_time.ms 60);
  ok "10us" (Sim_time.us 10);
  ok "2s" (Sim_time.sec 2.0);
  ok "500ns" (Sim_time.ns 500);
  ok "0.5" (Sim_time.ms 500);
  (* bare numbers are seconds *)
  let bad s =
    match Faults.Fault_plan.span_of_string s with
    | Ok _ -> Alcotest.failf "span %S should not parse" s
    | Error _ -> ()
  in
  bad "60minutes";
  bad "ms";
  bad "-5ms"

let test_parse_down_up () =
  let open Faults.Fault_plan in
  match plan_of "down s2-l2b@60ms; up s2-l2b@120ms" with
  | [ a; b ] ->
    check_int "sorted by time" 0 (Sim_time.compare_span a.at (span_ms 60));
    check_int "second at 120ms" 0 (Sim_time.compare_span b.at (span_ms 120));
    check_bool "down spec" true (a.spec = Down "s2-l2b");
    check_bool "up spec" true (b.spec = Up "s2-l2b")
  | p -> Alcotest.failf "expected 2 events, got %d" (List.length p)

let test_parse_sorts_events () =
  let open Faults.Fault_plan in
  match plan_of "up s2-l2b@120ms; down s2-l2b@60ms" with
  | [ a; b ] ->
    check_bool "down first after sort" true (a.spec = Down "s2-l2b");
    check_bool "up second" true (b.spec = Up "s2-l2b")
  | p -> Alcotest.failf "expected 2 events, got %d" (List.length p)

let test_parse_flap_brownout () =
  let open Faults.Fault_plan in
  (match plan_of "flap s1-l1 period=10ms duty=0.25 until=100ms @20ms" with
  | [ { at; spec = Flap { edge; period; duty; stop } } ] ->
    check_int "at" 0 (Sim_time.compare_span at (span_ms 20));
    check_string "edge" "s1-l1" edge;
    check_int "period" 0 (Sim_time.compare_span period (span_ms 10));
    check_bool "duty" true (Float.abs (duty -. 0.25) < 1e-9);
    check_bool "stop" true (stop = Some (span_ms 100))
  | _ -> Alcotest.fail "flap did not parse as expected");
  match plan_of "brownout s2-l2b frac=0.5 loss=0.01 until=80ms @40ms" with
  | [ { spec = Brownout { edge; capacity_frac; loss_prob; until }; _ } ] ->
    check_string "edge" "s2-l2b" edge;
    check_bool "frac" true (Float.abs (capacity_frac -. 0.5) < 1e-9);
    check_bool "loss" true (Float.abs (loss_prob -. 0.01) < 1e-9);
    check_bool "until" true (until = Some (span_ms 80))
  | _ -> Alcotest.fail "brownout did not parse as expected"

let test_parse_vswitch_faults () =
  let open Faults.Fault_plan in
  (match plan_of "feedback-loss p=0.3 until=90ms @30ms" with
  | [ { spec = Feedback_loss { prob; until }; _ } ] ->
    check_bool "prob" true (Float.abs (prob -. 0.3) < 1e-9);
    check_bool "until" true (until = Some (span_ms 90))
  | _ -> Alcotest.fail "feedback-loss did not parse");
  (match plan_of "probe-loss p=0.9 @30ms" with
  | [ { spec = Probe_loss { prob; until = None }; _ } ] ->
    check_bool "prob" true (Float.abs (prob -. 0.9) < 1e-9)
  | _ -> Alcotest.fail "probe-loss did not parse");
  match plan_of "switch-down s1@10ms; switch-up s1@20ms" with
  | [ { spec = Switch_down "s1"; _ }; { spec = Switch_up "s1"; _ } ] -> ()
  | _ -> Alcotest.fail "switch-down/up did not parse"

let test_parse_errors () =
  let bad spec =
    match Faults.Fault_plan.parse spec with
    | Ok _ -> Alcotest.failf "%S should not parse" spec
    | Error _ -> ()
  in
  bad "";
  bad "down s2-l2b";
  (* missing @time *)
  bad "explode s2-l2b@60ms";
  (* unknown verb *)
  bad "down@60ms";
  (* missing target *)
  bad "flap s2-l2b duty=0.5 @60ms";
  (* flap needs period *)
  bad "flap s2-l2b period=10ms duty=1.5 @60ms";
  (* duty out of (0,1) *)
  bad "brownout s2-l2b frac=0 @60ms";
  (* frac out of (0,1] *)
  bad "brownout s2-l2b loss=1.0 @60ms";
  (* loss must be < 1 *)
  bad "feedback-loss @60ms";
  (* needs p= *)
  bad "probe-loss p=chunky @60ms";
  bad "feedback-loss s2-l2b p=0.5 @60ms" (* takes no target *)

let test_plan_round_trip () =
  let specs =
    [
      "down s2-l2b@60ms; up s2-l2b@120ms";
      "flap s1-l2 period=10ms duty=0.25 until=100ms @20ms";
      "brownout s2-l2b frac=0.5 loss=0.01 until=80ms @40ms";
      "feedback-loss p=0.3 until=90ms @30ms; probe-loss p=0.9 @30ms";
      "switch-down s1@10ms; switch-up s1@20ms";
    ]
  in
  List.iter
    (fun spec ->
      let plan = plan_of spec in
      let printed = Faults.Fault_plan.to_string plan in
      let reparsed = plan_of printed in
      check_bool
        (Printf.sprintf "round-trip %S -> %S" spec printed)
        true (plan = reparsed))
    specs

let test_disruption_window () =
  let open Faults.Fault_plan in
  let window spec = disruption_window (plan_of spec) in
  (match window "down s2-l2b@60ms; up s2-l2b@120ms" with
  | Some (start, Some stop) ->
    check_int "start" 0 (Sim_time.compare_span start (span_ms 60));
    check_int "stop" 0 (Sim_time.compare_span stop (span_ms 120))
  | _ -> Alcotest.fail "down/up window");
  (match window "down s2-l2b@60ms" with
  | Some (_, None) -> ()
  | _ -> Alcotest.fail "permanent down has no restoration");
  (match window "flap s2-l2b period=10ms until=110ms @60ms" with
  | Some (start, Some stop) ->
    check_int "flap start" 0 (Sim_time.compare_span start (span_ms 60));
    check_int "flap stop" 0 (Sim_time.compare_span stop (span_ms 110))
  | _ -> Alcotest.fail "flap window");
  (match window "brownout s2-l2b loss=0.5 until=90ms @60ms" with
  | Some (start, Some stop) ->
    check_int "brownout start" 0 (Sim_time.compare_span start (span_ms 60));
    check_int "brownout stop" 0 (Sim_time.compare_span stop (span_ms 90))
  | _ -> Alcotest.fail "brownout window")

(* ------------------------------- Link ------------------------------ *)

let mk_seg ?(payload = 1400) () =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 1000;
    dst_port = 80;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload;
    ece = false;
  }

let mk_data () =
  Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:(mk_seg ())

let test_brownout_wire_loss () =
  let sched = Scheduler.create () in
  let link =
    Link.create ~sched ~rate_bps:10e9 ~prop_delay:Sim_time.zero_span ()
  in
  let received = ref 0 in
  Link.set_sink link (fun _ -> incr received);
  let rng = Rng.split_named (Rng.create 7) "brownout-test" in
  Link.set_brownout link ~capacity_frac:1.0 ~loss_prob:0.5 ~rng;
  let n = 200 in
  for _ = 1 to n do
    Link.send link (mk_data ())
  done;
  Scheduler.run sched;
  check_int "every packet accounted" n (!received + Link.brownout_drops link);
  check_bool
    (Printf.sprintf "loss in a plausible band (%d dropped)"
       (Link.brownout_drops link))
    true
    (Link.brownout_drops link > 20 && Link.brownout_drops link < 180);
  (* clearing the brownout stops the loss *)
  Link.clear_brownout link;
  received := 0;
  for _ = 1 to 50 do
    Link.send link (mk_data ())
  done;
  Scheduler.run sched;
  check_int "no loss after clear" 50 !received

let test_brownout_capacity () =
  (* half capacity -> the same burst takes about twice as long to drain *)
  let drain_time frac =
    let sched = Scheduler.create () in
    let link =
      Link.create ~sched ~rate_bps:10e9 ~prop_delay:Sim_time.zero_span ()
    in
    Link.set_sink link (fun _ -> ());
    if frac < 1.0 then
      Link.set_brownout link ~capacity_frac:frac ~loss_prob:0.0
        ~rng:(Rng.split_named (Rng.create 7) "brownout-test");
    for _ = 1 to 20 do
      Link.send link (mk_data ())
    done;
    Scheduler.run sched;
    Sim_time.to_sec (Scheduler.now sched)
  in
  let full = drain_time 1.0 in
  let half = drain_time 0.5 in
  check_bool
    (Printf.sprintf "half capacity is slower (%.2eus vs %.2eus)" (half *. 1e6)
       (full *. 1e6))
    true
    (half > 1.8 *. full && half < 2.2 *. full)

let test_down_drops_queue_accounting () =
  (* regression: packets flushed from the queue by a link failure must be
     counted in the queue's dropped/dropped_bytes, not just in down_drops,
     so packet-conservation audits balance *)
  let sched = Scheduler.create () in
  let link =
    (* slow link so a burst actually queues *)
    Link.create ~sched ~rate_bps:1e6 ~prop_delay:Sim_time.zero_span ()
  in
  let received = ref 0 in
  Link.set_sink link (fun _ -> incr received);
  let size = (mk_data ()).Packet.size in
  for _ = 1 to 5 do
    Link.send link (mk_data ())
  done;
  (* one packet is in serialization, four are queued *)
  Link.set_up link false;
  check_int "queued packets in down_drops" 4 (Link.down_drops link);
  let st = Pkt_queue.stats (Link.queue link) in
  check_int "queued packets in queue drops" 4 st.Pkt_queue.dropped;
  check_int "queued bytes in dropped_bytes" (4 * size)
    st.Pkt_queue.dropped_bytes;
  Scheduler.run sched;
  (* the in-flight packet dies at serialization end *)
  check_int "in-flight packet also lost" 5 (Link.down_drops link);
  check_int "nothing delivered" 0 !received

(* ---------------------------- Fault_engine ------------------------- *)

let build_scenario ?(scheme = Scenario.S_clove_ecn) ?probe_interval ?(seed = 5)
    () =
  let params =
    {
      Scenario.default_params with
      Scenario.seed;
      probe_interval;
      failure_recovery = true;
    }
  in
  Scenario.build ~scheme params

let engine_for scn =
  Faults.Fault_engine.create ~sched:(Scenario.sched scn)
    ~fabric:(Scenario.fabric scn)
    ~vswitches:
      (Array.map
         (fun h -> Scenario.vswitch scn h)
         (Fabric.hosts (Scenario.fabric scn)))
    ~naming:(Scenario.fault_naming scn)
    ~rng:(Rng.split_named (Scenario.rng scn) "faults")

let arm_exn engine plan =
  match Faults.Fault_engine.arm engine plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm: %s" e

let test_arm_rejects_unknown_names () =
  let scn = build_scenario () in
  let engine = engine_for scn in
  (match Faults.Fault_engine.arm engine (plan_of "down s9-l9@60ms") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown edge should fail to arm");
  (match Faults.Fault_engine.arm engine (plan_of "switch-down s99@60ms") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown switch should fail to arm");
  Scenario.quiesce scn

let test_flap_execution () =
  let scn = build_scenario ~scheme:Scenario.S_ecmp () in
  let sched = Scenario.sched scn in
  let engine = engine_for scn in
  arm_exn engine (plan_of "flap s2-l2b period=10ms duty=0.5 until=100ms @20ms");
  let edge =
    match (Scenario.fault_naming scn).resolve_edge "s2-l2b" with
    | Some e -> e
    | None -> Alcotest.fail "s2-l2b should resolve"
  in
  let fabric = Scenario.fabric scn in
  let seen_down = ref false in
  ignore
    (Scheduler.schedule_at sched ~time:(Sim_time.of_span (Sim_time.ms 22))
       (fun () ->
         let fwd, _ = Fabric.links_of_edge fabric edge in
         if not (Link.up fwd) then seen_down := true));
  Scheduler.run ~until:(Sim_time.of_span (Sim_time.ms 150)) sched;
  check_bool "link observed down mid-flap" true !seen_down;
  let fwd, rev = Fabric.links_of_edge fabric edge in
  check_bool "restored after until" true (Link.up fwd && Link.up rev);
  check_int "one plan event fired" 1 (Faults.Fault_engine.events_fired engine);
  check_bool
    (Printf.sprintf "many flap transitions (%d)"
       (Faults.Fault_engine.flap_transitions engine))
    true
    (Faults.Fault_engine.flap_transitions engine >= 10);
  check_bool "routing reconverged" true (Fabric.reconvergences fabric > 0);
  Faults.Fault_engine.stop engine;
  Scenario.quiesce scn

(* ------------------------- Path_table aging ------------------------ *)

let hop n p = { Packet.hop_node = n; hop_port = p }

let advance_to sched span =
  ignore (Scheduler.schedule_at sched ~time:(Sim_time.of_span span) (fun () -> ()));
  Scheduler.run sched

let test_pick_min_latency_suspect_trap () =
  (* the black-hole trap: with recovery off, an unmeasured path counts as
     zero delay and stays the permanent minimum; with recovery on, a
     suspect path reads as infinity *)
  let run_with recovery =
    let sched = Scheduler.create () in
    let cfg = { Clove.Clove_config.default with failure_recovery = recovery } in
    let tbl = Clove.Path_table.create ~sched ~cfg in
    Clove.Path_table.install tbl [ (1, [ hop 2 0 ]); (2, [ hop 2 1 ]) ];
    advance_to sched (Sim_time.us 100);
    (* port 2 is measured and alive; port 1 carries traffic but no echo
       ever returns *)
    Clove.Path_table.note_sample tbl ~port:2 ~value:30e-6;
    Clove.Path_table.note_tx tbl ~port:1;
    (* past the suspect timeout (20 rtt = 1.2 ms) but inside staleness *)
    advance_to sched (Sim_time.ms 2);
    Clove.Path_table.pick_min_sample tbl
  in
  check_int "legacy behavior keeps picking the black hole" 1 (run_with false);
  check_int "hardened pick avoids the suspect path" 2 (run_with true)

let test_stale_sample_discounted () =
  (* a stale measurement on a no-longer-verified path must not win the
     minimum just because its last (ancient) sample was small *)
  let sched = Scheduler.create () in
  let tbl =
    Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default
  in
  Clove.Path_table.install tbl [ (1, [ hop 2 0 ]); (2, [ hop 2 1 ]) ];
  advance_to sched (Sim_time.us 100);
  Clove.Path_table.note_sample tbl ~port:1 ~value:30e-6;
  (* both the sample on port 1 (staleness 50 rtt = 3 ms) and the install
     verification (2 probe intervals = 1 s) age out; port 2 gets a fresh
     larger sample *)
  advance_to sched (Sim_time.ms 1100);
  Clove.Path_table.note_sample tbl ~port:2 ~value:90e-6;
  check_int "fresh 90us beats stale 30us" 2
    (Clove.Path_table.pick_min_sample tbl)

let test_unmeasured_verified_paths_explored () =
  (* traffic starting after the first samples' staleness window must not
     pin every flowlet to the one measured path: the paths measured by
     nobody yet are verified by the install and read as zero *)
  let sched = Scheduler.create () in
  let tbl =
    Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default
  in
  Clove.Path_table.install tbl
    [ (1, [ hop 2 0 ]); (2, [ hop 2 1 ]); (3, [ hop 3 0 ]) ];
  advance_to sched (Sim_time.ms 10);
  Clove.Path_table.note_sample tbl ~port:1 ~value:30e-6;
  check_bool "an unmeasured verified path wins" true
    (Clove.Path_table.pick_min_sample tbl <> 1)

let test_deterministic_ties () =
  let sched = Scheduler.create () in
  let tbl =
    Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default
  in
  Clove.Path_table.install tbl
    [ (7, [ hop 2 0 ]); (5, [ hop 2 1 ]); (9, [ hop 3 0 ]) ];
  (* freshly verified, nothing measured: every path reads zero and the
     strict < comparison must break the tie to the lowest index *)
  check_int "tie breaks to first installed port" 7
    (Clove.Path_table.pick_min_sample tbl)

let test_maintain_evicts_suspect () =
  let sched = Scheduler.create () in
  let tbl =
    Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default
  in
  Clove.Path_table.install tbl [ (1, [ hop 2 0 ]); (2, [ hop 2 1 ]) ];
  advance_to sched (Sim_time.us 100);
  Clove.Path_table.note_tx tbl ~port:1;
  Clove.Path_table.note_alive tbl ~port:2;
  advance_to sched (Sim_time.ms 2);
  check_bool "port 1 suspect" true
    (Clove.Path_table.suspects tbl).(0);
  check_bool "port 2 not suspect" false (Clove.Path_table.suspects tbl).(1);
  for _ = 1 to 6 do
    Clove.Path_table.maintain tbl
  done;
  let w = Clove.Path_table.weights tbl in
  check_bool
    (Printf.sprintf "suspect weight decayed to ~0 (%.4f)" w.(0))
    true (w.(0) < 0.05);
  check_bool "weights still a distribution" true
    (Float.abs (Array.fold_left ( +. ) 0.0 w -. 1.0) < 1e-6);
  (* all-suspect fallback: uniform spraying, not a zero-sum collapse *)
  Clove.Path_table.note_tx tbl ~port:2;
  advance_to sched (Sim_time.ms 4);
  check_bool "both suspect now" true
    (Array.for_all Fun.id (Clove.Path_table.suspects tbl));
  Clove.Path_table.maintain tbl;
  let w = Clove.Path_table.weights tbl in
  check_bool "uniform fallback" true
    (Float.abs (w.(0) -. 0.5) < 1e-6 && Float.abs (w.(1) -. 0.5) < 1e-6)

let test_weight_recovery_drift () =
  let sched = Scheduler.create () in
  let tbl =
    Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default
  in
  Clove.Path_table.install tbl [ (1, [ hop 2 0 ]); (2, [ hop 2 1 ]) ];
  advance_to sched (Sim_time.us 100);
  Clove.Path_table.note_congested tbl ~port:1;
  let w = Clove.Path_table.weights tbl in
  check_bool "congestion cut the weight" true (w.(0) < 0.5);
  (* inside the quiet window nothing drifts back *)
  Clove.Path_table.maintain tbl;
  let w_early = (Clove.Path_table.weights tbl).(0) in
  check_bool "no drift while recently congested" true
    (Float.abs (w_early -. w.(0)) < 1e-9);
  (* after the quiet window (16 rtt ~ 1 ms) the weight heals toward 0.5 *)
  advance_to sched (Sim_time.ms 2);
  for _ = 1 to 12 do
    Clove.Path_table.maintain tbl
  done;
  let healed = (Clove.Path_table.weights tbl).(0) in
  check_bool
    (Printf.sprintf "weight recovered toward uniform (%.3f)" healed)
    true
    (healed > 0.45 && healed <= 0.5 +. 1e-9)

(* --------------------------- e2e: probe loss ----------------------- *)

let test_probe_loss_rediscovery () =
  (* total probe loss makes traceroute evict the destination after
     [evict_after_cycles] empty cycles; when the loss lifts, the daemon's
     continued probing rediscovers the paths *)
  let scn = build_scenario ~probe_interval:(Sim_time.ms 20) () in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let finished = ref false in
  ignore
    (Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
         submit ~bytes:2_000_000 ~on_complete:(fun () -> finished := true)));
  let engine = engine_for scn in
  arm_exn engine (plan_of "probe-loss p=0.99 until=220ms @40ms");
  let vsw = Scenario.vswitch scn client in
  let evicted_mid_fault = ref false in
  ignore
    (Scheduler.schedule_at sched ~time:(Sim_time.of_span (Sim_time.ms 210))
       (fun () ->
         match Clove.Vswitch.path_table vsw (Host.addr server) with
         | None -> evicted_mid_fault := true
         | Some tbl ->
           if not (Clove.Path_table.ready tbl) then evicted_mid_fault := true));
  Scheduler.run ~until:(Sim_time.of_span (Sim_time.ms 400)) sched;
  check_bool "probes were dropped" true
    ((Clove.Vswitch.stats vsw).Clove.Vswitch.probes_dropped > 0);
  check_bool "table evicted while probes were black-holed" true
    !evicted_mid_fault;
  (match Clove.Vswitch.path_table vsw (Host.addr server) with
  | Some tbl -> check_bool "paths rediscovered" true (Clove.Path_table.ready tbl)
  | None -> Alcotest.fail "path table should exist after rediscovery");
  check_bool "transfer survived the outage" true !finished;
  Faults.Fault_engine.stop engine;
  Scenario.quiesce scn

(* ---------------------- e2e: recovery spreads picks ---------------- *)

let test_recovery_spreads_picks () =
  (* with failure recovery on, the minimum-sample picker once read every
     path as unverified soon after its install and sent every flowlet to
     path index 0: each client of the golden setup must send data on at
     least two outer source ports, under both sample schemes *)
  let params =
    {
      Scenario.default_params with
      Scenario.asymmetric = true;
      failure_recovery = true;
      seed = 1;
    }
  in
  List.iter
    (fun scheme ->
      let scn = Scenario.build ~scheme params in
      let clients = Scenario.clients scn and servers = Scenario.servers scn in
      let per_port = Array.map (fun _ -> Hashtbl.create 8) clients in
      Array.iteri
        (fun i client ->
          Host.set_tx_tap client (fun pkt ->
              match (pkt.Packet.payload, pkt.Packet.encap) with
              | Packet.Tenant inner, Some e
                when inner.Packet.seg.Packet.kind = Packet.Data ->
                let port = e.Packet.src_port in
                let n = Option.value ~default:0 (Hashtbl.find_opt per_port.(i) port) in
                Hashtbl.replace per_port.(i) port (n + 1)
              | _ -> ()))
        clients;
      let conns =
        Array.mapi
          (fun i client -> Scenario.connect scn ~src:client ~dst:servers.(i))
          clients
      in
      let cfg =
        {
          Workload.Websearch.load = 0.5;
          bisection_bps = Scenario.bisection_bps scn;
          jobs_per_conn = 8;
          size_dist = Scenario.size_dist scn;
          start_at = Scenario.warmup scn;
        }
      in
      let (_ : Workload.Fct_stats.t) =
        Scenario.run_websearch scn ~rng:(Scenario.rng scn) ~conns cfg
      in
      Scenario.quiesce scn;
      Array.iteri
        (fun i counts ->
          let total = Hashtbl.fold (fun _ n acc -> acc + n) counts 0 in
          let top = Hashtbl.fold (fun _ n acc -> max n acc) counts 0 in
          check_bool
            (Printf.sprintf "%s client %d: %d data ports (top share %d/%d)"
               (Scenario.scheme_name scheme) i (Hashtbl.length counts) top total)
            true
            (Hashtbl.length counts >= 2))
        per_port)
    [ Scenario.S_clove_int; Scenario.S_clove_latency ]

(* -------------------------- e2e: black hole ------------------------ *)

let test_black_hole_eviction () =
  (* a silent total brownout (gray failure: routing never reconverges) on
     one core link; the hardened path table must flag the path as suspect
     and decay its weight to ~0 while the fault holds, and the transfer
     must complete after restoration *)
  let scn = build_scenario () in
  (* default 500 ms probe interval: traceroute will NOT reinstall during
     the run, so only the suspect machinery can save the flows *)
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let finished = ref false in
  ignore
    (Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
         submit ~bytes:50_000_000 ~on_complete:(fun () -> finished := true)));
  let engine = engine_for scn in
  arm_exn engine (plan_of "brownout s2-l2b frac=1.0 loss=0.99 until=150ms @50ms");
  let vsw = Scenario.vswitch scn client in
  let suspect_seen = ref false and min_weight = ref 1.0 in
  ignore
    (Scheduler.schedule_at sched ~time:(Sim_time.of_span (Sim_time.ms 140))
       (fun () ->
         match Clove.Vswitch.path_table vsw (Host.addr server) with
         | None -> ()
         | Some tbl ->
           if Array.exists Fun.id (Clove.Path_table.suspects tbl) then
             suspect_seen := true;
           Array.iter
             (fun w -> if w < !min_weight then min_weight := w)
             (Clove.Path_table.weights tbl)));
  Scheduler.run ~until:(Sim_time.of_span (Sim_time.ms 600)) sched;
  check_bool "black-holed path flagged suspect" true !suspect_seen;
  check_bool
    (Printf.sprintf "dead path weight decayed (min %.4f)" !min_weight)
    true (!min_weight < 0.02);
  check_bool "transfer completed after restoration" true !finished;
  Faults.Fault_engine.stop engine;
  Scenario.quiesce scn

(* ----------------------- determinism property ---------------------- *)

let replay_plans =
  [|
    "down s2-l2b@28ms; up s2-l2b@34ms";
    "flap s2-l2b period=4ms duty=0.5 until=38ms @27ms";
    "brownout s2-l2b frac=0.5 loss=0.3 until=36ms @27ms";
    "feedback-loss p=0.4 until=36ms @27ms; probe-loss p=0.4 until=36ms @27ms";
  |]

let chaos_digest ~seed ~plan =
  let params =
    {
      Scenario.default_params with
      Scenario.seed;
      probe_interval = Some (Sim_time.ms 10);
    }
  in
  let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
  let sched = Scenario.sched scn in
  let servers = Scenario.servers scn in
  let conns =
    Array.mapi
      (fun i client -> Scenario.connect scn ~src:client ~dst:servers.(i))
      (Scenario.clients scn)
  in
  let engine = engine_for scn in
  arm_exn engine plan;
  let cfg =
    {
      Workload.Websearch.load = 0.3;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn = 20;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let fct = Workload.Websearch.run ~sched ~rng:(Scenario.rng scn) ~conns cfg in
  Faults.Fault_engine.stop engine;
  Scenario.quiesce scn;
  Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct))

let prop_replay_deterministic =
  QCheck.Test.make ~name:"same-seed fault-plan replay has identical FCTs"
    ~count:4
    QCheck.(pair (int_range 1 30) (int_bound (Array.length replay_plans - 1)))
    (fun (seed, plan_idx) ->
      let plan = plan_of replay_plans.(plan_idx) in
      chaos_digest ~seed ~plan = chaos_digest ~seed ~plan)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "faults"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "span_of_string" `Quick test_span_of_string;
          Alcotest.test_case "down/up parse" `Quick test_parse_down_up;
          Alcotest.test_case "events sorted" `Quick test_parse_sorts_events;
          Alcotest.test_case "flap + brownout parse" `Quick
            test_parse_flap_brownout;
          Alcotest.test_case "vswitch faults parse" `Quick
            test_parse_vswitch_faults;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "round-trip" `Quick test_plan_round_trip;
          Alcotest.test_case "disruption window" `Quick test_disruption_window;
        ] );
      ( "link-faults",
        [
          Alcotest.test_case "brownout wire loss" `Quick test_brownout_wire_loss;
          Alcotest.test_case "brownout capacity" `Quick test_brownout_capacity;
          Alcotest.test_case "down drops queue accounting" `Quick
            test_down_drops_queue_accounting;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unknown names rejected" `Quick
            test_arm_rejects_unknown_names;
          Alcotest.test_case "flap executes" `Quick test_flap_execution;
        ] );
      ( "path-aging",
        [
          Alcotest.test_case "suspect trap fixed" `Quick
            test_pick_min_latency_suspect_trap;
          Alcotest.test_case "stale sample discounted" `Quick
            test_stale_sample_discounted;
          Alcotest.test_case "unmeasured verified paths explored" `Quick
            test_unmeasured_verified_paths_explored;
          Alcotest.test_case "deterministic ties" `Quick test_deterministic_ties;
          Alcotest.test_case "maintain evicts suspect" `Quick
            test_maintain_evicts_suspect;
          Alcotest.test_case "weight recovery drift" `Quick
            test_weight_recovery_drift;
          Alcotest.test_case "recovery spreads picks" `Quick
            test_recovery_spreads_picks;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "probe-loss rediscovery" `Quick
            test_probe_loss_rediscovery;
          Alcotest.test_case "black-hole eviction" `Quick
            test_black_hole_eviction;
          qc prop_replay_deterministic;
        ] );
    ]
