(* Determinism of the parallel sweep engine: fanning experiment points
   across domains must produce byte-identical results to a serial run —
   per point, through the memoized sweep path, into the right cells of a
   figure's (case x load) grid, and for two rows of the determinism
   matrix under every mode.  These tests spawn
   real domains (explicit ~domains:2) even on a single-core host. *)

open Experiments

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_params seed =
  {
    Scenario.default_params with
    Scenario.asymmetric = true;
    seed;
    hosts_per_leaf = 4;
    fabric_rate_bps = 4.0 *. 10e9 /. 4.0;
  }

(* a sweep point: one (scheme, seed, load, jobs per connection) run *)
type point = { scheme : Scenario.scheme; seed : int; load : float; jobs : int }

let small_points () =
  Array.of_list
    (List.concat_map
       (fun scheme ->
         List.concat_map
           (fun load -> List.map (fun seed -> { scheme; seed; load; jobs = 4 }) [ 1; 2 ])
           [ 0.3; 0.6 ])
       [ Scenario.S_ecmp; Scenario.S_clove_ecn ])

let at_domains domains = { Run_mode.default with Run_mode.domains }

(* the points fanned across the pool as the sweep fans its tasks: each
   with a private scenario, results by point index *)
let run_points ~domains points =
  let run p =
    Sweep.websearch_run ~mode:(at_domains domains) ~scheme:p.scheme
      ~params:(small_params p.seed) ~load:p.load ~jobs_per_conn:p.jobs
  in
  Array.map Workload.Fct_stats.canonical_dump (Domain_pool.run ~domains run points)

let test_two_domains_byte_identical () =
  let points = small_points () in
  let serial = run_points ~domains:1 points in
  let par = run_points ~domains:2 points in
  check_int "same number of results" (Array.length serial) (Array.length par);
  Array.iteri
    (fun i s ->
      check_string (Printf.sprintf "point %d identical under 2 domains" i) s
        par.(i))
    serial

let test_results_indexed_not_completion_ordered () =
  (* points with very different costs: if results were collected in
     completion order the cheap point would land in the wrong slot *)
  let mk jobs seed = { scheme = Scenario.S_ecmp; seed; load = 0.4; jobs } in
  let heavy_first = [| mk 10 1; mk 2 2 |] in
  let serial = run_points ~domains:1 heavy_first in
  let par = run_points ~domains:2 heavy_first in
  check_string "slow point stays at index 0" serial.(0) par.(0);
  check_string "fast point stays at index 1" serial.(1) par.(1)

let opts = { Sweep.default_opts with Sweep.jobs_per_conn = 4; seeds = [ 1; 2 ] }

let memo_specs =
  [ (Scenario.S_ecmp, small_params 1, 0.5); (Scenario.S_clove_ecn, small_params 1, 0.5) ]

let test_prefetch_matches_serial_point () =
  (* the merged, memoized answer must not depend on how it was computed:
     every (spec, seed) task on 1 domain vs fanned across 2 (the
     stability check starts every mode from a cleared memo) *)
  let fetch mode =
    String.concat "\n"
      (List.map Workload.Fct_stats.canonical_dump
         (Sweep.websearch_points ~opts:{ opts with Sweep.mode } memo_specs))
  in
  let serial, outcomes = Sweep.check_stability fetch in
  let par = List.find (fun o -> o.Run_mode.mode = "domains-2") outcomes in
  check_string "2-domain merge identical" serial par.Run_mode.digest

let test_load_sweep_cell_placement () =
  (* every cell of a (case x load) grid is the metric of its own point:
     row = load, column = case, never transposed or shifted *)
  let opts = { Sweep.default_opts with Sweep.jobs_per_conn = 4; seeds = [ 1 ] } in
  let cases =
    [
      ("A-ecmp", Scenario.S_ecmp, small_params 1);
      ("B-clove", Scenario.S_clove_ecn, small_params 1);
    ]
  in
  let loads = [ 0.3; 0.6 ] in
  let metric fct = Workload.Fct_stats.avg fct in
  let report =
    Figures.load_sweep ~id:"grid" ~title:"grid" ~paper_claim:"-" ~cases ~loads
      ~metric ~metric_name:"avg" ~opts
  in
  let csv = Stats.Table.csv report.Figures.table in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_string "header" "load%/avg,A-ecmp,B-clove" (List.hd lines);
  check_string "row labels" "30;60"
    (String.concat ";"
       (List.map (fun l -> List.hd (String.split_on_char ',' l)) (List.tl lines)));
  (* the same grid rebuilt point by point: row = load, column = case *)
  let expected = Stats.Table.create ~header:[ "load%/avg"; "A-ecmp"; "B-clove" ] in
  List.iter
    (fun load ->
      Stats.Table.add_float_row expected
        ~label:(Printf.sprintf "%.0f" (100.0 *. load))
        (List.map metric
           (Sweep.websearch_points ~opts
              (List.map (fun (_, scheme, params) -> (scheme, params, load)) cases))))
    loads;
  check_string "every cell is its own point's metric" (Stats.Table.csv expected) csv

let test_repeated_parallel_runs_stable () =
  (* same points, same domain count, fresh pool each time: the engine
     itself must not inject nondeterminism (scheduling, pooling) *)
  let points = small_points () in
  let a = run_points ~domains:2 points in
  let b = run_points ~domains:2 points in
  Array.iteri
    (fun i s -> check_string (Printf.sprintf "run-to-run point %d" i) s b.(i))
    a

let test_matrix_slice () =
  (* a runtest slice of [clove-sim determinism]: fig9 reads the sweep
     memo (which every cell must clear, or a perturbed cell would be
     answered from the baseline's runs) and ext-chaos fans Chaos.run's
     schemes across the pool *)
  List.iter
    (fun id ->
      let baseline, outcomes =
        Sweep.check_stability (List.assoc id Extensions.determinism_rows)
      in
      check_string (id ^ ": modes") "domains-2 shards-2 tiebreak-lifo"
        (String.concat " " (List.map (fun o -> o.Run_mode.mode) outcomes));
      List.iter
        (fun o -> check_string (id ^ " under " ^ o.Run_mode.mode) baseline o.Run_mode.digest)
        outcomes)
    [ "fig9"; "ext-chaos" ]

(* an audited chaos run's ledgers, as [clove-sim chaos --audit] prints
   them: the auditor's state lives in each run's own schedulers and
   components, so audited runs fan out and shard like any other and
   report the same packet counts and violations at every width.  At load
   0.8 and seed 21 a sharded run's last window fires packets past the
   last completion, so this also pins the audited run's common end *)
let test_audited_chaos_width_invariant () =
  let audited = { Run_mode.default with Run_mode.domains = 1; audit = true } in
  let run mode =
    Chaos.run
      {
        Chaos.plan = Result.get_ok (Faults.Fault_plan.parse Chaos.link_down_spec);
        schemes = [ Scenario.S_clove_ecn; Scenario.S_ecmp ];
        load = 0.8;
        jobs_per_conn = 20;
        params = { Chaos.default_opts.Chaos.params with Scenario.seed = 21 };
        mode;
      }
  in
  let ledgers rows = Format.asprintf "%a" Chaos.pp_ledgers rows in
  let serial = run audited in
  check_bool "packets counted, no violation" true
    (Array.for_all
       (fun r -> r.Chaos.r_ledger.Ledger.injected > 0 && Ledger.ok r.Chaos.r_ledger)
       serial);
  check_string "ledgers at --shards 2" (ledgers serial)
    (ledgers (run { audited with Run_mode.shards = 2 }));
  check_string "ledgers at --domains 2" (ledgers serial)
    (ledgers (run { audited with Run_mode.domains = 2 }))

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "2 domains byte-identical to serial" `Quick
            test_two_domains_byte_identical;
          Alcotest.test_case "results merged by index" `Quick
            test_results_indexed_not_completion_ordered;
          Alcotest.test_case "prefetch equals serial memo path" `Quick
            test_prefetch_matches_serial_point;
          Alcotest.test_case "run-to-run stable" `Quick
            test_repeated_parallel_runs_stable;
          Alcotest.test_case "audited chaos ledger width-invariant" `Quick
            test_audited_chaos_width_invariant;
        ] );
      ( "figures",
        [
          Alcotest.test_case "load_sweep cell placement" `Quick
            test_load_sweep_cell_placement;
          Alcotest.test_case "determinism matrix slice" `Quick test_matrix_slice;
        ] );
    ]
