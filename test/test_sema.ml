(* Tests for clove-check's determinism, unit-safety and code rules and for the
   schedule-perturbation sanitizer: the static and dynamic halves of the
   same guarantee, that a run is a function of its seed and nothing
   else. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qc = QCheck_alcotest.to_alcotest


open Experiments

(* --------------------------- static rules -------------------------- *)

(* clove-check's sema-* rules over the compiled fixture library
   test/fixtures/sema/.  Tests run from _build/default/test, so its .cmt
   files are under fixtures/sema and its sources under ..; the targets
   are the flagged top-level bindings. *)
let fixture_units =
  lazy
    (fst
       (Sema.Cmt_load.load ~root:"fixtures/sema"
          ~source_prefixes:[ "test/fixtures/sema/" ]))

let fixture_findings =
  lazy
    (Analysis.Findings.suppress ~source_root:".." ~files:[]
       (Sema.Det_rules.findings (Lazy.force fixture_units))
    |> List.filter Analysis.Findings.is_active)

let targets rule fs =
  List.filter_map
    (fun (f : Analysis.Findings.t) -> if f.rule = rule then Some f.target else None)
    fs
  |> List.sort String.compare

let check_flagged rule expected =
  Alcotest.(check (list string))
    rule
    (List.sort String.compare expected)
    (targets rule (Lazy.force fixture_findings))

(* the findings of [rule] on sema_paths.ml compiled as if it lived at
   [source] *)
let as_if source rule =
  Lazy.force fixture_units
  |> List.filter_map (fun (u : Sema.Cmt_load.unit_info) ->
         if u.u_short = "Sema_paths" then Some { u with u_source = source } else None)
  |> Sema.Det_rules.findings |> targets rule

let test_hashtbl_order () =
  check_flagged "sema-hashtbl-order"
    [
      "Sema_bad.dump_weights";
      "Sema_bad.total_into";
      "Sema_bad.show";
      "Sema_bad.dump_flows";
      "Sema_bad.count_into";
      "Sema_misread.qualified";
      "Sema_misread.aliased";
      "Sema_misread.mirrored";
    ]

let test_raw_random () =
  check_flagged "sema-raw-random" [ "Sema_bad.pick_port"; "Sema_bad.reseed" ]

let test_wall_clock () =
  check_flagged "sema-wall-clock"
    [ "Sema_bad.stamp"; "Sema_bad.cpu"; "Sema_misread.opened_clock" ]

let test_adhoc_seed () =
  check_flagged "sema-adhoc-seed" [ "Sema_bad.local_rng"; "Sema_paths.literal_stream" ]

let test_fault_rng () =
  check_flagged "sema-fault-rng" [ "Fault_stream.stream" ];
  (* inside lib/faults/ any Rng.create is wrong, even a non-literal seed,
     and the literal-seed case reports as fault-rng, not adhoc-seed *)
  let in_faults = as_if "lib/faults/fault_engine.ml" in
  Alcotest.(check (list string))
    "fault-rng in lib/faults/"
    [ "Sema_paths.literal_stream"; "Sema_paths.seeded_stream" ]
    (in_faults "sema-fault-rng");
  Alcotest.(check (list string)) "no double report" [] (in_faults "sema-adhoc-seed")

let test_wildcard_variant () =
  check_flagged "sema-wildcard-variant" [ "Sema_bad.is_probe"; "Sema_bad.fb_port" ]

let test_time_boundary () =
  check_flagged "sema-time-boundary"
    [
      "Sema_bad.gap_ns";
      "Sema_bad.instant";
      "Sema_misread.opened_time";
      "Sema_paths.raw_instant";
    ];
  List.iter
    (fun source ->
      Alcotest.(check (list string)) source [] (as_if source "sema-time-boundary"))
    [ "lib/engine/event_queue.ml"; "lib/transport/rtt_estimator.ml"; "lib/netsim/dre.ml" ];
  Alcotest.(check (list string))
    "outside the whitelist" [ "Sema_paths.raw_instant" ]
    (as_if "lib/netsim/packet_pool.ml" "sema-time-boundary")

let test_unit_mix () =
  check_flagged "sema-unit-mix" [ "Sema_bad.nonsense"; "Sema_bad.deadline_minus" ]

let test_domain_parallel () =
  check_flagged "sema-domain-parallel"
    [
      "Sema_bad.spawn";
      "Sema_bad.lock";
      "Sema_bad.bump";
      "Sema_bad.wake";
      "Sema_paths.worker";
      "Sema_paths.slot";
    ];
  (* the parallel runtime itself is whitelisted *)
  List.iter
    (fun source ->
      Alcotest.(check (list string)) source [] (as_if source "sema-domain-parallel"))
    [ "lib/engine/domain_pool.ml"; "lib/netsim/packet_pool.ml" ];
  Alcotest.(check (list string))
    "outside the whitelist" [ "Sema_paths.slot"; "Sema_paths.worker" ]
    (as_if "lib/netsim/dre.ml" "sema-domain-parallel")

(* the code rules: each seeded instance is flagged and no near-miss of
   sema_clean.ml or sema_misread.ml is (a local compare, [ignore] of a
   variable or passed as a value, the tokens in strings and comments) *)
let test_obj_magic () =
  check_flagged "obj-magic" [ "Sema_bad.sentinel"; "Sema_misread.aliased_magic" ]

let test_poly_compare () =
  check_flagged "poly-compare" [ "Sema_bad.order"; "Sema_bad.sort_weights" ]

let test_bare_ignore () =
  check_flagged "bare-ignore"
    [ "Sema_bad.drop_lookup"; "Sema_bad.drop_piped"; "Sema_bad.drop_applied" ]

let test_hashtbl_find () =
  check_flagged "hashtbl-find" [ "Sema_bad.weight_of"; "Sema_misread.opened_find" ];
  (* the justified marker in sema_clean.ml suppresses, and says why *)
  Alcotest.(check (list (pair string (option string))))
    "suppressed"
    [ ("Sema_clean.present", Some "the port was inserted at creation") ]
    (Analysis.Findings.suppress ~source_root:".." ~files:[]
       (Sema.Det_rules.findings (Lazy.force fixture_units))
    |> List.filter_map (fun (f : Analysis.Findings.t) ->
           if f.rule = "hashtbl-find" && not (Analysis.Findings.is_active f) then
             Some (f.target, f.reason)
           else None))

let test_float_eq () =
  check_flagged "float-eq"
    [ "Sema_bad.idle"; "Sema_bad.busy"; "Sema_misread.exact_zero" ]

(* sema_misread.ml: the eight violations a spelling match misses are
   flagged, and neither the wildcard over a local [Data] constructor nor
   the local compare is *)
let test_parent_misreads () =
  Alcotest.(check (list (pair string string)))
    "misreads classified"
    [
      ("Sema_misread.aliased", "sema-hashtbl-order");
      ("Sema_misread.aliased_magic", "obj-magic");
      ("Sema_misread.exact_zero", "float-eq");
      ("Sema_misread.mirrored", "sema-hashtbl-order");
      ("Sema_misread.opened_clock", "sema-wall-clock");
      ("Sema_misread.opened_find", "hashtbl-find");
      ("Sema_misread.opened_time", "sema-time-boundary");
      ("Sema_misread.qualified", "sema-hashtbl-order");
    ]
    (Lazy.force fixture_findings
    |> List.filter_map (fun (f : Analysis.Findings.t) ->
           if f.file = "test/fixtures/sema/sema_misread.ml" then Some (f.target, f.rule)
           else None)
    |> List.sort compare)

let test_fixture_flagged () =
  let fs = Lazy.force fixture_findings in
  List.iter
    (fun (rule, _) ->
      check_bool (rule ^ " flagged") true (targets rule fs <> []))
    Sema.Det_rules.rules;
  List.iter
    (fun (f : Analysis.Findings.t) ->
      check_bool "finding names a fixture" true
        (String.starts_with ~prefix:"test/fixtures/sema/" f.file);
      check_bool "finding carries a line" true (f.line > 0))
    fs

(* clove-check's typed dead-export pass on test/fixtures/dead/ (tests
   run from _build/default/test, so the fixture's .cmt/.cmti files are
   under fixtures/): a local-open use, an aliased use of a value sharing
   a used type's name and an [include] keep their values live, and only
   the value nothing references is reported *)
let test_dead_export () =
  let scope = [ "test/fixtures/dead/" ] in
  let units, intfs = Sema.Cmt_load.load ~root:"fixtures" ~source_prefixes:scope in
  check_bool "fixture interface loaded" true (intfs <> []);
  let fs = Sema.Dead_export.findings ~scope units intfs in
  Alcotest.(check (list string))
    "only the dead export" [ "Dead_lib.stale" ]
    (List.map (fun (f : Analysis.Findings.t) -> f.target) fs);
  List.iter
    (fun (f : Analysis.Findings.t) ->
      Alcotest.(check string) "rule" "dead-export" f.rule;
      Alcotest.(check string) "file" "test/fixtures/dead/dead_lib.mli" f.file)
    fs

(* -------------------- dynamic sanitizer: basics -------------------- *)

(* A correct run: observable order fixed by Int_table.iter_sorted, so
   the digest survives every perturbation. *)
let sorted_run (_ : Run_mode.t) =
  let tbl = Int_table.create ~capacity:16 ~dummy:0 in
  for i = 0 to 19 do
    Int_table.set tbl (i * 17) i
  done;
  let b = Buffer.create 128 in
  Int_table.iter_sorted
    (fun k v -> Buffer.add_string b (Printf.sprintf "%d=%d;" k v))
    tbl;
  Buffer.contents b

(* Two same-timestamp events whose firing order is observable: flipping
   the tie-break flips the digest. *)
let tie_order_run mode =
  let sched = Scheduler.create ~mode () in
  let b = Buffer.create 4 in
  let time = Sim_time.of_span (Sim_time.us 5) in
  Scheduler.schedule_at sched ~time (fun () -> Buffer.add_char b 'a');
  Scheduler.schedule_at sched ~time (fun () -> Buffer.add_char b 'b');
  Scheduler.run sched;
  Buffer.contents b

let diverged outcomes = List.filter (fun o -> not o.Run_mode.matches) outcomes

let test_sanitizer_accepts_sorted () =
  let baseline, outcomes = Run_mode.check_stability sorted_run in
  check_bool "digest non-empty" true (String.length baseline > 0);
  check_int "every standard mode runs" 2 (List.length outcomes);
  check_bool "stable" true (Run_mode.stable outcomes);
  check_int "no divergence" 0 (List.length (diverged outcomes))

let test_sanitizer_catches_tie_order () =
  let _, outcomes = Run_mode.check_stability tie_order_run in
  check_bool "unstable" false (Run_mode.stable outcomes);
  let lifo = List.find (fun o -> o.Run_mode.mode = "tiebreak-lifo") outcomes in
  check_bool "lifo flipped the digest" false lifo.Run_mode.matches

(* -------------- property: insertion order never leaks -------------- *)

let dedup_keys bindings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    bindings

let shuffle rng xs =
  List.map (fun x -> (Rng.int rng 1_000_000, x)) xs
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* an Int_table's sorted traversal, after inserting [bindings] into a
   table of [capacity] (so the slot layouts differ) *)
let digest_of ~capacity bindings =
  let tbl = Int_table.create ~capacity ~dummy:0 in
  List.iter (fun (k, v) -> Int_table.set tbl k v) bindings;
  let b = Buffer.create 64 in
  Int_table.iter_sorted (fun k v -> Buffer.add_string b (Printf.sprintf "(%d,%d)" k v)) tbl;
  Buffer.contents b

let prop_insertion_order =
  QCheck.Test.make
    ~name:"sorted digests invariant to insertion order and table size"
    ~count:50
    QCheck.(pair (small_list (pair small_nat small_nat)) small_nat)
    (fun (bindings, mix) ->
      let bindings = dedup_keys bindings in
      let baseline = digest_of ~capacity:2 bindings in
      let shuffled = shuffle (Rng.create (mix + 1)) bindings in
      List.for_all
        (fun capacity -> String.equal (digest_of ~capacity shuffled) baseline)
        [ 2; 16; 256 ])

(* ------------- end-to-end: a full scenario run is stable ----------- *)

(* an audited run's digest; its ledger's violations add to [violations] *)
let scenario_digest ~violations ~params ~jobs mode =
  let fct, ledger =
    Chaos.simulate ~mode params ~load:0.4 ~jobs_per_conn:jobs Scenario.S_clove_ecn []
  in
  violations := !violations + ledger.Ledger.violation_count;
  Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct))

(* the paper-claim configuration, the asymmetric testbed, and the
   hardened recovery path (maintain tick, probe refresh) with 20 ms
   probes densifying probe/data timer ties *)
let asym = { Scenario.default_params with Scenario.asymmetric = true; seed = 1 }

let scenario_inputs =
  [
    ("websearch/clove-ecn", { Scenario.default_params with Scenario.seed = 11 }, 8);
    ("asymmetric", asym, 10);
    ( "asymmetric+recovery",
      { asym with Scenario.failure_recovery = true; probe_interval = Some (Sim_time.ms 20) },
      10 );
  ]

let test_scenario_stable_under_perturbation () =
  let violations = ref 0 in
  List.iter
    (fun (label, params, jobs) ->
      let baseline, outcomes =
        Run_mode.check_stability (fun m ->
            scenario_digest ~violations ~params ~jobs { m with Run_mode.audit = true })
      in
      check_bool
        (Format.asprintf "identical digests:@.%a" (Run_mode.pp_outcomes ~label)
           (baseline, outcomes))
        true
        (Run_mode.stable outcomes))
    scenario_inputs;
  check_int "no violations" 0 !violations

(* MPTCP arms every subflow's RTO and TLP from one handler in one
   instant; those timers used to rank under the arming handler and fall
   back to insertion order, which LIFO reversed (fig7's MPTCP column
   moved at fan-in 7 and up).  They rank under each sender's own
   component id now, so the goodput is tie-order independent. *)
let test_mptcp_incast_tie_order () =
  let goodput tiebreak =
    Sweep.incast_point
      ~mode:{ Run_mode.serial with Run_mode.tiebreak }
      ~scheme:Scenario.S_mptcp
      ~params:
        { Scenario.default_params with Scenario.hosts_per_leaf = 16; fabric_rate_bps = 40e9 }
      ~fanout:7 ~total_bytes:2_500_000 ~requests:3 ~seeds:[ 1 ]
  in
  Alcotest.(check string)
    "FIFO and LIFO goodput" (Printf.sprintf "%h" (goodput Event_queue.Fifo))
    (Printf.sprintf "%h" (goodput Event_queue.Lifo))

let () =
  Alcotest.run "sema"
    [
      ( "static-passes",
        [
          Alcotest.test_case "hashtbl-order" `Quick test_hashtbl_order;
          Alcotest.test_case "raw-random" `Quick test_raw_random;
          Alcotest.test_case "wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "adhoc-seed" `Quick test_adhoc_seed;
          Alcotest.test_case "fault-rng" `Quick test_fault_rng;
          Alcotest.test_case "wildcard-variant" `Quick test_wildcard_variant;
          Alcotest.test_case "time-boundary" `Quick test_time_boundary;
          Alcotest.test_case "unit-mix" `Quick test_unit_mix;
          Alcotest.test_case "domain-parallel" `Quick test_domain_parallel;
          Alcotest.test_case "parent misreads" `Quick test_parent_misreads;
          Alcotest.test_case "fixture flagged" `Quick test_fixture_flagged;
          Alcotest.test_case "dead-export fixture" `Quick test_dead_export;
        ] );
      ( "lint",
        [
          Alcotest.test_case "obj-magic" `Quick test_obj_magic;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "bare-ignore" `Quick test_bare_ignore;
          Alcotest.test_case "hashtbl-find" `Quick test_hashtbl_find;
          Alcotest.test_case "float-eq" `Quick test_float_eq;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "sorted iteration accepted" `Quick
            test_sanitizer_accepts_sorted;
          Alcotest.test_case "tie order caught" `Quick
            test_sanitizer_catches_tie_order;
          qc prop_insertion_order;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "scenario digest survives perturbation" `Quick
            test_scenario_stable_under_perturbation;
          Alcotest.test_case "mptcp incast tie-order independent" `Quick
            test_mptcp_incast_tie_order;
        ] );
    ]
