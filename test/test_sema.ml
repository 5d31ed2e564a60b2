(* Tests for clove-check's determinism and unit-safety rules and for the
   schedule-perturbation sanitizer: the static and dynamic halves of the
   same guarantee, that a run is a function of its seed and nothing
   else. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qc = QCheck_alcotest.to_alcotest

module Perturb = Analysis.Perturb
module Audit = Analysis.Audit

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

(* sema_misread.ml: the five violations a spelling match misses are
   flagged, and the wildcard over a local [Data] constructor is not *)
let test_parent_misreads () =
  Alcotest.(check (list (pair string string)))
    "misreads classified"
    [
      ("Sema_misread.aliased", "sema-hashtbl-order");
      ("Sema_misread.mirrored", "sema-hashtbl-order");
      ("Sema_misread.opened_clock", "sema-wall-clock");
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

let test_perturbed_size () =
  Perturb.reset ();
  check_int "identity at salt 0" 16 (Perturb.perturbed_size 16);
  Perturb.set_tbl_size_salt 3;
  check_bool "salt enlarges" true (Perturb.perturbed_size 16 > 16);
  check_bool "deterministic" true
    (Perturb.perturbed_size 16 = Perturb.perturbed_size 16);
  Perturb.reset ();
  check_int "reset restores" 16 (Perturb.perturbed_size 16)

(* A correct run: observable order fixed by Det.iter_sorted, so the
   digest survives every perturbation. *)
let sorted_run () =
  let tbl = Det.create 16 in
  for i = 0 to 19 do
    Hashtbl.replace tbl (i * 17) i
  done;
  let b = Buffer.create 128 in
  Det.iter_sorted ~compare:Int.compare
    (fun k v -> Buffer.add_string b (Printf.sprintf "%d=%d;" k v))
    tbl;
  Buffer.contents b

(* The fixture's dump_weights pattern: digest taken in bucket order, so
   a sizing salt reshuffles it. *)
let bucket_order_run () =
  let tbl = Det.create 16 in
  for i = 0 to 19 do
    Hashtbl.replace tbl (i * 17) i
  done;
  let b = Buffer.create 128 in
  Hashtbl.iter (fun k v -> Buffer.add_string b (Printf.sprintf "%d=%d;" k v)) tbl;
  Buffer.contents b

(* Two same-timestamp events whose firing order is observable: flipping
   the tie-break knob flips the digest. *)
let tie_order_run () =
  let sched = Scheduler.create () in
  let b = Buffer.create 4 in
  let time = Sim_time.of_span (Sim_time.us 5) in
  let (_ : Scheduler.handle) =
    Scheduler.schedule_at sched ~time (fun () -> Buffer.add_char b 'a')
  in
  let (_ : Scheduler.handle) =
    Scheduler.schedule_at sched ~time (fun () -> Buffer.add_char b 'b')
  in
  Scheduler.run sched;
  Buffer.contents b

let test_sanitizer_accepts_sorted () =
  Audit.reset ();
  Audit.set_enabled true;
  let baseline, outcomes =
    Perturb.check_schedule_stability ~label:"sorted" ~run:sorted_run ()
  in
  check_bool "digest non-empty" true (String.length baseline > 0);
  check_int "all perturbations run" 3 (List.length outcomes);
  check_bool "stable" true (Perturb.stable outcomes);
  check_bool "no violations" true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

let test_sanitizer_catches_bucket_order () =
  Audit.reset ();
  Audit.set_enabled true;
  let _, outcomes =
    Perturb.check_schedule_stability ~label:"bucket-order" ~run:bucket_order_run
      ()
  in
  check_bool "unstable" false (Perturb.stable outcomes);
  let salted =
    List.filter
      (fun o -> not o.Perturb.matches)
      (List.filter (fun o -> o.Perturb.perturbation <> "tiebreak-lifo") outcomes)
  in
  check_bool "a sizing salt exposed it" true (salted <> []);
  check_bool "violations recorded" true (Audit.violation_count () > 0);
  Audit.set_enabled false;
  Audit.reset ()

let test_sanitizer_catches_tie_order () =
  Audit.reset ();
  Audit.set_enabled true;
  let _, outcomes =
    Perturb.check_schedule_stability ~label:"tie-order" ~run:tie_order_run ()
  in
  check_bool "unstable" false (Perturb.stable outcomes);
  let lifo =
    List.find (fun o -> o.Perturb.perturbation = "tiebreak-lifo") outcomes
  in
  check_bool "lifo flipped the digest" false lifo.Perturb.matches;
  Audit.set_enabled false;
  Audit.reset ()

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

let digest_of bindings =
  let tbl = Det.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings;
  Det.fold_sorted ~compare:Int.compare
    (fun k v acc -> Printf.sprintf "%s(%d,%d)" acc k v)
    tbl ""

let prop_insertion_order =
  QCheck.Test.make
    ~name:"sorted digests invariant to insertion order and perturbation"
    ~count:50
    QCheck.(pair (small_list (pair small_nat small_nat)) small_nat)
    (fun (bindings, mix) ->
      let bindings = dedup_keys bindings in
      let baseline = digest_of bindings in
      let shuffled = shuffle (Rng.create (mix + 1)) bindings in
      List.for_all
        (fun (_, tb, salt) ->
          Perturb.with_settings ~tb ~salt (fun () ->
              String.equal (digest_of shuffled) baseline))
        (("unperturbed", Perturb.Fifo, 0) :: Perturb.standard_perturbations))

(* ------------- end-to-end: a full scenario run is stable ----------- *)

let scenario_digest () =
  let params = { Scenario.default_params with Scenario.seed = 11 } in
  let fct =
    Sweep.websearch_run ~scheme:Scenario.S_clove_ecn ~params ~load:0.4
      ~jobs_per_conn:8
  in
  Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct))

let test_scenario_stable_under_perturbation () =
  Audit.reset ();
  Audit.set_enabled true;
  let baseline, outcomes =
    Perturb.check_schedule_stability ~label:"websearch/clove-ecn"
      ~run:scenario_digest ()
  in
  check_bool
    (Format.asprintf "identical digests: %a" Perturb.pp_outcomes
       (baseline, outcomes))
    true
    (Perturb.stable outcomes);
  check_bool "no violations" true (Audit.ok ());
  Audit.set_enabled false;
  Audit.reset ()

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
      ( "sanitizer",
        [
          Alcotest.test_case "perturbed sizes" `Quick test_perturbed_size;
          Alcotest.test_case "sorted iteration accepted" `Quick
            test_sanitizer_accepts_sorted;
          Alcotest.test_case "bucket order caught" `Quick
            test_sanitizer_catches_bucket_order;
          Alcotest.test_case "tie order caught" `Quick
            test_sanitizer_catches_tie_order;
          qc prop_insertion_order;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "scenario digest survives perturbation" `Quick
            test_scenario_stable_under_perturbation;
        ] );
    ]
