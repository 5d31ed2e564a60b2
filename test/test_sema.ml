(* Tests for clove-sema (the AST-level determinism and unit-safety
   analyzer) and for the schedule-perturbation sanitizer: the static and
   dynamic halves of the same guarantee, that a run is a function of its
   seed and nothing else. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qc = QCheck_alcotest.to_alcotest

module Perturb = Analysis.Perturb
module Audit = Analysis.Audit

open Experiments

(* --------------------------- static passes ------------------------- *)

(* Findings are path-sensitive (the time-boundary whitelist), so pretend
   the snippet lives in an ordinary component module. *)
let analyze ?(file = "lib/clove/snippet.ml") src = Sema.Rules.analyze_source ~file src

let count_rule rule fs =
  List.length (List.filter (fun f -> f.Sema.Rules.rule = rule) fs)

let one rule src = check_int rule 1 (count_rule rule (analyze src))
let none src = check_int "clean" 0 (List.length (analyze src))

let test_hashtbl_order () =
  one "sema-hashtbl-order"
    "let dump tbl b =\n\
    \  Hashtbl.iter (fun k v -> Buffer.add_string b (f k v)) tbl\n";
  one "sema-hashtbl-order"
    "let total tbl c = Hashtbl.fold (fun _ v () -> c := !c + v) tbl ()\n";
  one "sema-hashtbl-order"
    "let show tbl = Hashtbl.iter (fun k _ -> Printf.printf \"%d\" k) tbl\n";
  none "let total tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0\n";
  none "let dump tbl b =\n\
       \  Det.iter_sorted ~compare:Int.compare\n\
       \    (fun k v -> Buffer.add_string b (f k v)) tbl\n";
  none
    "(* log order is cosmetic -- lint: allow sema-hashtbl-order *)\n\
     let dump tbl b = Hashtbl.iter (fun k v -> Buffer.add_string b (f k v)) tbl\n"

let test_raw_random () =
  one "sema-raw-random" "let pick xs = List.nth xs (Random.int (len xs))\n";
  one "sema-raw-random" "let () = Random.self_init ()\n";
  none "let pick rng xs = List.nth xs (Rng.int rng (len xs))\n"

let test_wall_clock () =
  one "sema-wall-clock" "let t0 = Unix.gettimeofday ()\n";
  one "sema-wall-clock" "let t0 = Sys.time ()\n";
  none "let t0 = Scheduler.now sched\n";
  none
    "(* harness timing -- lint: allow sema-wall-clock *)\n\
     let t0 = Sys.time ()\n"

let test_adhoc_seed () =
  one "sema-adhoc-seed" "let rng = Rng.create 42\n";
  none "let rng = Rng.create seed\n";
  none "let rng = Rng.split_named parent \"letflow\"\n"

let test_fault_rng () =
  (* inside lib/faults/ any Rng.create is wrong, even a non-literal seed *)
  let in_faults = analyze ~file:"lib/faults/fault_engine.ml" in
  check_int "sema-fault-rng literal" 1
    (count_rule "sema-fault-rng" (in_faults "let rng = Rng.create 42\n"));
  check_int "sema-fault-rng variable" 1
    (count_rule "sema-fault-rng" (in_faults "let rng = Rng.create seed\n"));
  check_int "fault split_named clean" 0
    (List.length (in_faults "let rng = Rng.split_named parent \"flap\"\n"));
  (* the literal-seed case reports as fault-rng there, not adhoc-seed *)
  check_int "no double report" 0
    (count_rule "sema-adhoc-seed" (in_faults "let rng = Rng.create 42\n"));
  (* outside lib/faults/ a non-literal seed stays clean *)
  none "let rng = Rng.create seed\n"

let test_wildcard_variant () =
  one "sema-wildcard-variant"
    "let f p = match p with Packet.Probe _ -> true | _ -> false\n";
  one "sema-wildcard-variant" "let f = function Packet.Fb_ecn _ -> 1 | _ -> 0\n";
  (* exhaustive protocol matches and wildcards over other types are fine *)
  none "let f e = match e with Packet.Not_ect -> 0 | Ect -> 1 | Ce -> 2\n";
  none "let f o = match o with Some _ -> true | _ -> false\n"

let test_time_boundary () =
  one "sema-time-boundary" "let g = Sim_time.span_ns (Sim_time.us 500)\n";
  one "sema-time-boundary" "let t = Sim_time.of_ns 5\n";
  (* the typed algebra is always fine *)
  none "let g = Sim_time.mul_span rtt 0.5\n";
  (* ... and raw conversions are fine inside the whitelist *)
  check_int "whitelisted" 0
    (List.length
       (analyze ~file:"lib/engine/event_queue.ml" "let t = Sim_time.of_ns 5\n"))

let test_unit_mix () =
  one "sema-unit-mix" "let x = flow_bytes + gap_ns\n";
  one "sema-unit-mix" "let x = deadline_us -. queue_pkts\n";
  none "let x = flow_bytes + hdr_bytes\n";
  none "let x = gap_ns + rtt_ns\n";
  none "let x = a + b\n"

let test_domain_parallel () =
  one "sema-domain-parallel" "let d = Domain.spawn (fun () -> work ())\n";
  one "sema-domain-parallel" "let m = Mutex.create ()\n";
  one "sema-domain-parallel" "let c = Atomic.fetch_and_add counter 1\n";
  one "sema-domain-parallel" "let () = Condition.broadcast cv\n";
  (* the parallel runtime itself is whitelisted *)
  check_int "domain_pool whitelisted" 0
    (List.length
       (analyze ~file:"lib/engine/domain_pool.ml"
          "let d = Domain.spawn (fun () -> work ())\nlet m = Mutex.create ()\n"));
  check_int "packet_pool whitelisted" 0
    (List.length
       (analyze ~file:"lib/netsim/packet_pool.ml"
          "let key = Domain.DLS.new_key (fun () -> fresh ())\n"));
  (* calls into the pool are not calls into Domain *)
  none "let results = Domain_pool.run job points\n";
  none
    "(* harness counter -- lint: allow sema-domain-parallel *)\n\
     let c = Atomic.fetch_and_add counter 1\n"

let test_parse_error () =
  let fs = analyze "let let let\n" in
  check_int "one finding" 1 (List.length fs);
  check_int "parse error" 1 (count_rule "sema-parse-error" fs)

let test_fixture_flagged () =
  (* cwd is test/ under [dune runtest] but the project root under
     [dune exec] *)
  let path =
    if Sys.file_exists "fixtures/order_dependent.ml" then
      "fixtures/order_dependent.ml"
    else "test/fixtures/order_dependent.ml"
  in
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fs = Sema.Rules.analyze_source ~file:"test/fixtures/order_dependent.ml" src in
  List.iter
    (fun rule -> check_int rule 1 (count_rule rule fs))
    [
      "sema-hashtbl-order";
      "sema-raw-random";
      "sema-wall-clock";
      "sema-adhoc-seed";
      "sema-wildcard-variant";
      "sema-time-boundary";
      "sema-unit-mix";
    ];
  List.iter
    (fun f ->
      check_bool "finding names the fixture" true
        (f.Sema.Rules.file = "test/fixtures/order_dependent.ml");
      check_bool "finding carries a line" true (f.Sema.Rules.line > 0))
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
          Alcotest.test_case "parse-error" `Quick test_parse_error;
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
