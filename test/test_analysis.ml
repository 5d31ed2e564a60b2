(* Tests for the correctness-tooling layer: clove-lint's interface
   check, the shared suppression grammar and the runtime invariant
   auditor (packet conservation, monotonic clocks, per-flowlet FIFO,
   weight normalization, determinism). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module Lint = Analysis.Lint

open Experiments

(* ------------------------------ lint ------------------------------- *)

let test_lint_missing_mli () =
  let fs =
    Lint.check_interface_presence
      ~ml_files:[ "lib/foo/a.ml"; "lib/foo/b.ml" ]
      ~mli_files:[ "lib/foo/a.mli" ]
  in
  check_int "one module uncovered" 1 (List.length fs);
  match fs with
  | [ f ] ->
    check_bool "names the .ml" true (f.Lint.file = "lib/foo/b.ml");
    check_bool "right rule" true (f.Lint.rule = "missing-mli")
  | _ -> Alcotest.fail "expected exactly one finding"

(* ----------------------- suppression grammar ----------------------- *)

(* The one marker grammar every analyzer parses: (case, source, rule,
   line of the finding, expected justification, expected allow-empty
   lines). *)
let suppression_cases =
  [
    ( "marker on the flagged line",
      "let t = now () (* harness timing -- lint: allow sema-wall-clock *)\n",
      "sema-wall-clock", 1, Some "harness timing", [] );
    ( "marker on the line above",
      "(* harness timing -- lint: allow sema-wall-clock *)\nlet t = now ()\n",
      "sema-wall-clock", 2, Some "harness timing", [] );
    ( "two lines above does not reach",
      "(* harness timing -- lint: allow sema-wall-clock *)\n\nlet t = now ()\n",
      "sema-wall-clock", 3, None, [] );
    ( "wrong rule id does not suppress",
      "(* harness timing -- lint: allow sema-wall-clock *)\nlet r = Random.int 3\n",
      "sema-raw-random", 2, None, [] );
    ( "justification before the marker",
      "(* host time of the harness itself \xe2\x80\x94 lint: allow sema-wall-clock *)\n",
      "sema-wall-clock", 1, Some "host time of the harness itself", [] );
    ( "justification after the marker",
      "(* lint: allow sema-wall-clock \xe2\x80\x94 analyzer harness timing *)\n",
      "sema-wall-clock", 1, Some "analyzer harness timing", [] );
    ( "justification on a continuation line",
      "(* the remainder is the intent,\n   not a tolerance -- lint: allow float-eq *)\n",
      "float-eq", 2, Some "not a tolerance", [] );
    ( "several rule ids",
      "(* once per pool -- lint: allow alloc-array, alloc-closure *)\n",
      "alloc-closure", 2, Some "once per pool", [] );
    ( "empty justification gives allow-empty",
      "x\n(* lint: allow sema-wall-clock *)\nlet t = now ()\n",
      "sema-wall-clock", 3, None, [ 2 ] );
    ( "separators alone are no justification",
      "(* -- lint: allow sema-wall-clock \xe2\x80\x94 *)\n",
      "sema-wall-clock", 1, None, [ 1 ] );
    ( "allow-file reaches any line",
      "(* lint: allow-file race-shared-mut -- serial by design *)\n\n\n\nlet x = 1\n",
      "race-shared-mut", 5, Some "serial by design", [] );
    ( "a line marker is not a file marker",
      "(* serial -- lint: allow race-shared-mut *)\n\n\n\nlet x = 1\n",
      "race-shared-mut", 5, None, [] );
    ( "unjustified allow-file gives allow-empty",
      "(* lint: allow-file race-shared-mut *)\nlet x = 1\n",
      "race-shared-mut", 2, None, [ 1 ] );
  ]

let test_suppression_grammar () =
  List.iter
    (fun (case, src, rule, line, reason, empty) ->
      let ms = Analysis.Findings.markers src in
      Alcotest.(check (option string))
        (case ^ ": justification") reason
        (Analysis.Findings.allowed ms ~rule ~line);
      Alcotest.(check (list int))
        (case ^ ": allow-empty lines") empty
        (List.map fst (Analysis.Findings.allow_empty ms)))
    suppression_cases

(* --------------------------- audit: units -------------------------- *)

let audited = { Run_mode.serial with Run_mode.audit = true }
let cfg = Clove.Clove_config.default

(* the outer-header stamps of the tenant packets a client sends while
   carrying a few flows, and the scenario *)
let client_stamps mode =
  let scn = Scenario.build ~mode ~scheme:Scenario.S_clove_ecn Scenario.default_params in
  let client = (Scenario.clients scn).(0) in
  let stamps = ref [] in
  Host.set_tx_tap client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Tenant _ -> stamps := pkt.Packet.audit_seq :: !stamps
      | Packet.Probe _ | Packet.Probe_reply _ -> ());
  let submit = Scenario.connect scn ~src:client ~dst:(Scenario.servers scn).(0) in
  let sched = Scenario.sched scn in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      submit ~bytes:20_000 ~on_complete:ignore);
  Scheduler.run ~until:(Sim_time.of_ns 60_000_000) sched;
  Scenario.quiesce scn;
  (!stamps, scn)

(* the clock-parking misuse the watermark guards against cannot
   happen: with the clock at 100 ns, [run_until] to a 50 ns horizon
   leaves it there, so an event for 60 ns is refused as past instead of
   firing after the one at 100 ns *)
let clock_regression sched =
  let at ns = Sim_time.of_ns ns in
  Scheduler.schedule_at sched ~time:(at 100) ignore;
  Scheduler.schedule_at sched ~time:(at 200) ignore;
  Scheduler.run_until sched ~until_ns:100;
  Scheduler.run_until sched ~until_ns:50;
  check_int "clock stays at 100 ns" 100 (Sim_time.to_ns (Scheduler.now sched));
  Alcotest.check_raises "60 ns is in the past"
    (Invalid_argument "Scheduler.schedule_at: time in the past") (fun () ->
      Scheduler.schedule_at sched ~time:(at 60) ignore);
  Scheduler.run sched

let test_audit_disabled_hooks () =
  let stamps, scn = client_stamps Run_mode.serial in
  check_bool "tenant packets were sent" true (stamps <> []);
  check_bool "no FIFO stamp when off" true (List.for_all (fun s -> s = -1) stamps);
  let sched = Scheduler.create () in
  clock_regression sched;
  check_int "nothing recorded when off" 0 (Scheduler.violation_count sched);
  check_int "a scenario records nothing when off" 0
    (Scenario.ledger scn).Ledger.violation_count

let test_audit_monotonic_clock () =
  let sched = Scheduler.create ~mode:audited () in
  Scheduler.schedule_at sched ~time:(Sim_time.of_ns 100) ignore;
  Scheduler.schedule_at sched ~time:(Sim_time.of_ns 100) ignore;
  Scheduler.run sched;
  let fresh = Scheduler.create ~mode:audited () in
  Scheduler.schedule_at fresh ~time:(Sim_time.of_ns 5) ignore;
  Scheduler.run fresh;
  check_int "equal times and fresh clocks are fine" 0
    (Scheduler.violation_count sched + Scheduler.violation_count fresh);
  let parked = Scheduler.create ~mode:audited () in
  clock_regression parked;
  check_int "no backwards step" 0 (Scheduler.violation_count parked)

let test_audit_fifo () =
  let sched = Scheduler.create ~mode:audited () in
  let fifo = Clove.Fifo_check.create ~route_epoch:(fun () -> 0) in
  let stamp () = Clove.Fifo_check.stamp fifo ~stream:7 ~port:50001 in
  let check s = Clove.Fifo_check.check fifo sched ~stream:7 ~port:50001 ~stamp:s in
  let s0 = stamp () in
  let s1 = stamp () in
  let s2 = stamp () in
  check_int "sequences count up" 2 s2;
  check s0;
  check s2;
  check_int "gaps (drops) are fine" 0 (Scheduler.violation_count sched);
  check s1;
  check_int "reversal recorded" 1 (Scheduler.violation_count sched);
  check (-1);
  check_int "unstamped packets are ignored" 1 (Scheduler.violation_count sched)

let test_audit_fifo_reroute () =
  (* a packet sent before a reconvergence may arrive after one sent over
     the new route: only a reversal within one route epoch counts *)
  let sched = Scheduler.create ~mode:audited () in
  let epoch = ref 0 in
  let fifo = Clove.Fifo_check.create ~route_epoch:(fun () -> !epoch) in
  let stamp () = Clove.Fifo_check.stamp fifo ~stream:9 ~port:50002 in
  let check s = Clove.Fifo_check.check fifo sched ~stream:9 ~port:50002 ~stamp:s in
  let before = stamp () in
  epoch := 1;
  let after = stamp () in
  check after;
  check before;
  check_int "a rerouted late packet is no reversal" 0 (Scheduler.violation_count sched);
  let s0 = stamp () in
  let s1 = stamp () in
  check s1;
  check s0;
  check_int "a same-epoch reversal still trips" 1 (Scheduler.violation_count sched)

let test_audit_weight_sum () =
  let sched = Scheduler.create ~mode:audited () in
  let tbl = Clove.Path_table.create ~sched ~cfg in
  Clove.Path_table.check_weight_sum tbl ~label:"unit" [| 0.25; 0.75 |];
  Clove.Path_table.check_weight_sum tbl ~label:"unit" [||];
  check_int "normalized and empty are fine" 0 (Scheduler.violation_count sched);
  Clove.Path_table.check_weight_sum tbl ~label:"unit" [| 0.5; 0.4 |];
  check_int "unnormalized recorded" 1 (Scheduler.violation_count sched)

let test_audit_weight_sum_via_path_table () =
  let sched = Scheduler.create ~mode:audited () in
  let tbl = Clove.Path_table.create ~sched ~cfg in
  Clove.Path_table.install tbl
    [
      (50001, [ { Packet.hop_node = 2; hop_port = 0 } ]);
      (50002, [ { Packet.hop_node = 3; hop_port = 0 } ]);
    ];
  Clove.Path_table.note_congested tbl ~port:50001;
  Clove.Path_table.maintain tbl;
  check_int "every update renormalizes" 0 (Scheduler.violation_count sched)

(* ------------------- audit: conservation fixtures ------------------ *)

let mk_seg =
  {
    Packet.conn_id = 1;
    subflow = 0;
    src_port = 1;
    dst_port = 2;
    seq = 0;
    ack = 0;
    kind = Packet.Data;
    payload = 1400;
    ece = false;
  }

let test_conservation_broken_fixture () =
  (* a black-hole sink swallows the packet without Host.deliver: the
     injected packet is never delivered nor accounted as dropped, so the
     conservation check must trip *)
  let sched = Scheduler.create ~mode:audited () in
  let c =
    Topology.clos ~pods:1 ~leaves_per_pod:2 ~spines_per_pod:1 ~cores:0
      ~hosts_per_leaf:1 ~parallel:1 ~host_rate_bps:1e9 ~fabric_rate_bps:1e9
      ~core_rate_bps:1e9 ~delay:(Sim_time.us 1)
  in
  let fabric = Fabric.create ~sched ~config:Fabric.default_config c.Topology.topo in
  let h = (Fabric.hosts fabric).(0) in
  Link.set_sink (Host.uplink h) (fun _ -> ());
  Host.send h (Packet.make_tenant ~src:(Host.addr h) ~dst:(Addr.of_int 1) ~seg:mk_seg);
  Scheduler.run sched;
  let ledger = Ledger.measure fabric ~scheds:[ sched ] in
  check_int "one packet injected" 1 ledger.Ledger.injected;
  check_int "nothing delivered" 0 ledger.Ledger.delivered;
  check_bool "conservation violated" false (Ledger.ok ledger);
  check_int "exactly one violation" 1 ledger.Ledger.violation_count;
  check_string "as a packet-conservation violation" "packet-conservation"
    (List.hd ledger.Ledger.violations).Scheduler.invariant

let test_scenario_run_is_audit_clean () =
  (* a full Clove-ECN scenario run with every check live: conservation
     holds after a complete drain, no clock regressions, no flowlet
     reordering, weights always normalized *)
  let params = { Scenario.default_params with Scenario.seed = 5 } in
  let scn = Scenario.build ~mode:audited ~scheme:Scenario.S_clove_ecn params in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let done_count = ref 0 in
  let sizes = [ 5_000; 70_000; 999; 20_000 ] in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      List.iter
        (fun b -> submit ~bytes:b ~on_complete:(fun () -> incr done_count))
        sizes);
  Scheduler.run ~until:(Sim_time.of_ns 300_000_000) sched;
  check_int "all jobs done" (List.length sizes) !done_count;
  Scenario.quiesce scn;
  (* drain everything still in flight *)
  Scheduler.run sched;
  let ledger = Scenario.ledger scn in
  check_bool "packets were injected" true (ledger.Ledger.injected > 0);
  check_bool "packets were delivered" true (ledger.Ledger.delivered > 0);
  check_int "nothing left in flight" 0 ledger.Ledger.in_flight;
  check_bool
    (Format.asprintf "no violations: %a" (Ledger.pp ~label:"clove-ecn") ledger)
    true (Ledger.ok ledger);
  let stamps, _ = client_stamps audited in
  check_bool "tenant packets carry FIFO stamps" true
    (stamps <> [] && List.for_all (fun s -> s >= 0) stamps)

let test_conservation_mid_run () =
  (* between two events of a busy run, the packets not yet delivered or
     dropped are exactly the ones links and switches hold *)
  let params = { Scenario.default_params with Scenario.seed = 3 } in
  let scn = Scenario.build ~mode:audited ~scheme:Scenario.S_ecmp params in
  let conns =
    Array.mapi
      (fun i client -> Scenario.connect scn ~src:client ~dst:(Scenario.servers scn).(i))
      (Scenario.clients scn)
  in
  let sched = Scenario.sched scn in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      Array.iter (fun submit -> submit ~bytes:200_000 ~on_complete:ignore) conns);
  Scheduler.run ~until:(Sim_time.of_ns 25_100_000) sched;
  let ledger = Scenario.ledger scn in
  check_bool "packets in flight" true (ledger.Ledger.in_flight > 0);
  check_bool
    (Format.asprintf "conserved mid-run: %a" (Ledger.pp ~label:"ecmp") ledger)
    true (Ledger.ok ledger);
  Scenario.quiesce scn

let test_chaos_flap_is_audit_clean () =
  (* [clove-sim chaos --audit --jobs 300] under a fast flap: each flap
     reconverges routing, and a packet sent before it may overtake one
     sent after it; the run must come out clean all the same *)
  let params = Chaos.default_opts.Chaos.params in
  let plan =
    Result.get_ok
      (Faults.Fault_plan.parse ~names:(Scenario.fault_names params)
         "flap s2-l2b period=4ms duty=0.5 until=70ms @25ms")
  in
  Array.iter
    (fun r ->
      let ledger = r.Chaos.r_ledger in
      check_bool
        (Format.asprintf "clean: %a" (Ledger.pp ~label:"flap") ledger)
        true
        (Ledger.ok ledger && ledger.Ledger.injected > 0))
    (Chaos.run { Chaos.default_opts with Chaos.plan; jobs_per_conn = 300; mode = audited })

(* ------------------------ audit: determinism ----------------------- *)

(* an audited run's digest; its ledger's violations add to [violations] *)
let websearch_digest ~violations mode =
  let params = { Scenario.default_params with Scenario.seed = 11 } in
  let fct, ledger =
    Chaos.simulate ~mode params ~load:0.4 ~jobs_per_conn:10 Scenario.S_clove_ecn []
  in
  violations := !violations + ledger.Ledger.violation_count;
  Printf.sprintf "avg=%.12f p99=%.12f n=%d"
    (Workload.Fct_stats.avg fct)
    (Workload.Fct_stats.percentile fct 99.0)
    (Workload.Fct_stats.count fct)

(* run-to-run determinism is the stability driver's [rerun] mode *)
let rerun run =
  Run_mode.check_stability ~modes:[ Run_mode.rerun ] (fun m ->
      run { m with Run_mode.audit = true })

let test_determinism_websearch () =
  let violations = ref 0 in
  check_bool "same seed, same digest" true
    (Run_mode.stable (snd (rerun (websearch_digest ~violations))));
  check_int "no violations" 0 !violations

let test_determinism_counterexample () =
  let calls = ref 0 in
  let run (_ : Run_mode.t) =
    incr calls;
    string_of_int !calls
  in
  let _, outcomes = rerun run in
  check_bool "impure run caught" false (Run_mode.stable outcomes);
  check_int "mismatch recorded" 1
    (List.length (List.filter (fun o -> not o.Run_mode.matches) outcomes))

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "missing-mli" `Quick test_lint_missing_mli;
          Alcotest.test_case "suppression grammar" `Quick
            test_suppression_grammar;
        ] );
      ( "audit-units",
        [
          Alcotest.test_case "hooks off" `Quick test_audit_disabled_hooks;
          Alcotest.test_case "monotonic clock" `Quick test_audit_monotonic_clock;
          Alcotest.test_case "flowlet fifo" `Quick test_audit_fifo;
          Alcotest.test_case "flowlet fifo across a reroute" `Quick
            test_audit_fifo_reroute;
          Alcotest.test_case "weight sum" `Quick test_audit_weight_sum;
          Alcotest.test_case "weight sum via path table" `Quick
            test_audit_weight_sum_via_path_table;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "broken fixture trips" `Quick
            test_conservation_broken_fixture;
          Alcotest.test_case "scenario run is clean" `Quick
            test_scenario_run_is_audit_clean;
          Alcotest.test_case "conserved mid-run" `Quick test_conservation_mid_run;
          Alcotest.test_case "chaos flap run is clean" `Quick
            test_chaos_flap_is_audit_clean;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "websearch double run" `Quick
            test_determinism_websearch;
          Alcotest.test_case "counterexample caught" `Quick
            test_determinism_counterexample;
        ] );
    ]
