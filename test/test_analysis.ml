(* Tests for the correctness-tooling layer: the clove-lint lexical rules
   and the runtime invariant auditor (packet conservation, monotonic
   clocks, per-flowlet FIFO, weight normalization, determinism). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Audit = Analysis.Audit
module Lint = Analysis.Lint

open Experiments

(* ------------------------------ lint ------------------------------- *)

let lint src = Lint.check_source ~file:"fixture.ml" src
let count src = List.length (lint src)

let test_lint_obj_magic () =
  check_int "flagged" 1 (count "let x = Obj.magic 0\n");
  check_int "suppressed by preceding line" 0
    (count
       "(* sentinel is never read back -- lint: allow obj-magic *)\n\
        let x = Obj.magic 0\n");
  check_int "suppressed on same line" 0
    (count "let x = Obj.magic 0 (* never read back -- lint: allow obj-magic *)\n");
  Alcotest.(check (list string))
    "an unjustified marker suppresses nothing and is a finding"
    [ "obj-magic"; "allow-empty" ]
    (List.map
       (fun f -> f.Lint.rule)
       (lint "let x = Obj.magic 0 (* lint: allow obj-magic *)\n"))

let test_lint_poly_compare () =
  check_int "List.sort compare" 1 (count "let s = List.sort compare xs\n");
  check_int "bare compare application" 1 (count "let c = compare a b\n");
  check_int "Stdlib.compare" 1 (count "let c = Stdlib.compare a b\n");
  check_int "Int.compare clean" 0 (count "let s = List.sort Int.compare xs\n");
  check_int "definition clean" 0 (count "let compare a b = Int.compare a b\n");
  check_int "labelled arg clean" 0 (count "let s = sort ~compare xs\n")

let test_lint_bare_ignore () =
  check_int "ignore (...)" 1 (count "ignore (f x);\n");
  check_int "multiline ignore" 1 (count "ignore\n  (f x);\n");
  check_int "typed let clean" 0 (count "let (_ : int) = f x in\n");
  check_int "ignore of a variable clean" 0 (count "ignore x;\n");
  check_int "suppressed" 0
    (count "(* thunk result unused -- lint: allow bare-ignore *)\nignore (f x);\n")

let test_lint_hashtbl_find () =
  check_int "Hashtbl.find" 1 (count "let v = Hashtbl.find tbl k in\n");
  check_int "find_opt clean" 0 (count "let v = Hashtbl.find_opt tbl k in\n");
  check_int "find_all clean" 0 (count "let v = Hashtbl.find_all tbl k in\n");
  check_int "suppressed" 0
    (count
       "(* key inserted above -- lint: allow hashtbl-find *)\n\
        let v = Hashtbl.find tbl k in\n")

let test_lint_float_eq () =
  check_int "if x = 1.0" 1 (count "if x = 1.0 then y\n");
  check_int "literal first" 1 (count "if 1.0 = x then y\n");
  check_int "guard with &&" 1 (count "ready && x = 0.5\n");
  check_int "binding is clean" 0 (count "let x = 1.0 in\n");
  check_int "<= is clean" 0 (count "if t.total <= 0.0 then z\n");
  check_int "int equality clean" 0 (count "if x = 10 then y\n")

let test_lint_masking () =
  check_int "comments and strings never fire" 0
    (count
       "(* compare Obj.magic ignore (x) Hashtbl.find *)\n\
        let s = \"if x = 1.0 then Obj.magic\" in\n\
        let c = 'c' in\n");
  check_int "nested comment" 0
    (count "(* outer (* ignore (f x) *) still comment *)\nlet y = 1\n")

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

let test_audit_disabled_hooks () =
  Audit.reset ();
  Audit.set_enabled false;
  check_int "fifo_tx is -1 when off" (-1) (Audit.fifo_tx ~stream:1 ~port:1);
  Audit.note_injected ();
  check_int "counters stay zero when off" 0 (Audit.injected ())

let test_audit_monotonic_clock () =
  Audit.reset ();
  Audit.set_enabled true;
  Audit.note_clock ~clock_id:123 ~now_ns:100;
  Audit.note_clock ~clock_id:123 ~now_ns:100;
  Audit.note_clock ~clock_id:124 ~now_ns:5;
  check_bool "equal times and fresh clocks are fine" true (Audit.ok ());
  Audit.note_clock ~clock_id:123 ~now_ns:50;
  check_int "backwards step recorded" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_audit_fifo () =
  Audit.reset ();
  Audit.set_enabled true;
  let s0 = Audit.fifo_tx ~stream:7 ~port:50001 in
  let s1 = Audit.fifo_tx ~stream:7 ~port:50001 in
  let s2 = Audit.fifo_tx ~stream:7 ~port:50001 in
  check_int "sequences count up" 2 s2;
  Audit.fifo_rx ~stream:7 ~port:50001 ~seq:s0;
  Audit.fifo_rx ~stream:7 ~port:50001 ~seq:s2;
  check_bool "gaps (drops) are fine" true (Audit.ok ());
  Audit.fifo_rx ~stream:7 ~port:50001 ~seq:s1;
  check_int "reversal recorded" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_audit_weight_sum () =
  Audit.reset ();
  Audit.set_enabled true;
  Audit.check_weight_sum ~label:"unit" [| 0.25; 0.75 |];
  Audit.check_weight_sum ~label:"unit" [||];
  check_bool "normalized and empty are fine" true (Audit.ok ());
  Audit.check_weight_sum ~label:"unit" [| 0.5; 0.4 |];
  check_int "unnormalized recorded" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_audit_weight_sum_via_path_table () =
  Audit.reset ();
  Audit.set_enabled true;
  let sched = Scheduler.create () in
  let tbl = Clove.Path_table.create ~sched ~cfg:Clove.Clove_config.default in
  Clove.Path_table.install tbl
    [
      (50001, [ { Packet.hop_node = 2; hop_port = 0 } ]);
      (50002, [ { Packet.hop_node = 3; hop_port = 0 } ]);
    ];
  Clove.Path_table.note_congested tbl ~port:50001;
  Clove.Path_table.maintain tbl;
  check_bool "every update renormalizes" true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

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
  let sched = Scheduler.create () in
  let link =
    Link.create ~sched ~rate_bps:1e9 ~prop_delay:(Sim_time.us 1) ()
  in
  Link.set_sink link (fun _ -> ());
  let h = Host.create ~sched ~id:0 ~addr:(Addr.of_int 0) in
  Host.attach_uplink h link;
  Audit.reset ();
  Audit.set_enabled true;
  let pkt = Packet.make_tenant ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~seg:mk_seg in
  Host.send h pkt;
  Scheduler.run sched;
  check_int "one packet injected" 1 (Audit.injected ());
  check_int "nothing delivered" 0 (Audit.delivered ());
  Audit.check_packet_conservation ~in_flight:0;
  check_bool "conservation violated" false (Audit.ok ());
  check_int "exactly one violation" 1 (Audit.violation_count ());
  Audit.set_enabled false;
  Audit.reset ()

let test_scenario_run_is_audit_clean () =
  (* a full Clove-ECN scenario run with every hook live: conservation
     holds after a complete drain, no clock regressions, no flowlet
     reordering, weights always normalized *)
  Audit.reset ();
  Audit.set_enabled true;
  let params = { Scenario.default_params with Scenario.seed = 5 } in
  let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let done_count = ref 0 in
  let sizes = [ 5_000; 70_000; 999; 20_000 ] in
  let (_ : Scheduler.handle) =
    Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
        List.iter
          (fun b -> submit ~bytes:b ~on_complete:(fun () -> incr done_count))
          sizes)
  in
  Scheduler.run ~until:(Sim_time.of_ns 300_000_000) sched;
  check_int "all jobs done" (List.length sizes) !done_count;
  Scenario.quiesce scn;
  (* drain everything still in flight so in_flight = 0 at the check *)
  Scheduler.run sched;
  check_bool "packets were injected" true (Audit.injected () > 0);
  check_bool "packets were delivered" true (Audit.delivered () > 0);
  Audit.check_packet_conservation ~in_flight:0;
  check_bool
    (Printf.sprintf "no violations: %s" (Audit.report ()))
    true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

(* ------------------------ audit: determinism ----------------------- *)

let websearch_digest () =
  let params = { Scenario.default_params with Scenario.seed = 11 } in
  let fct =
    Sweep.websearch_run ~scheme:Scenario.S_clove_ecn ~params ~load:0.4
      ~jobs_per_conn:10
  in
  Printf.sprintf "avg=%.12f p99=%.12f n=%d"
    (Workload.Fct_stats.avg fct)
    (Workload.Fct_stats.percentile fct 99.0)
    (Workload.Fct_stats.count fct)

let test_determinism_websearch () =
  Audit.reset ();
  Audit.set_enabled true;
  check_bool "same seed, same digest" true
    (Audit.check_determinism ~label:"websearch/clove-ecn" ~run:websearch_digest);
  check_bool "no violations" true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

let test_determinism_counterexample () =
  Audit.reset ();
  let calls = ref 0 in
  let run () =
    incr calls;
    string_of_int !calls
  in
  check_bool "impure run caught" false
    (Audit.check_determinism ~label:"counter" ~run);
  check_int "mismatch recorded" 1 (Audit.violation_count ());
  Audit.reset ()

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "obj-magic" `Quick test_lint_obj_magic;
          Alcotest.test_case "poly-compare" `Quick test_lint_poly_compare;
          Alcotest.test_case "bare-ignore" `Quick test_lint_bare_ignore;
          Alcotest.test_case "hashtbl-find" `Quick test_lint_hashtbl_find;
          Alcotest.test_case "float-eq" `Quick test_lint_float_eq;
          Alcotest.test_case "masking" `Quick test_lint_masking;
          Alcotest.test_case "missing-mli" `Quick test_lint_missing_mli;
          Alcotest.test_case "suppression grammar" `Quick
            test_suppression_grammar;
        ] );
      ( "audit-units",
        [
          Alcotest.test_case "hooks off" `Quick test_audit_disabled_hooks;
          Alcotest.test_case "monotonic clock" `Quick test_audit_monotonic_clock;
          Alcotest.test_case "flowlet fifo" `Quick test_audit_fifo;
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
        ] );
      ( "determinism",
        [
          Alcotest.test_case "websearch double run" `Quick
            test_determinism_websearch;
          Alcotest.test_case "counterexample caught" `Quick
            test_determinism_counterexample;
        ] );
    ]
