(* The paper's headline scenario: a spine-leaf link fails (-25% bisection)
   and congestion-oblivious ECMP collides flows onto the degraded spine,
   while Clove-ECN steers flowlets away from it using relayed ECN feedback.

   Runs the same web-search workload under ECMP, Edge-Flowlet and Clove-ECN
   on the asymmetric fabric and prints the comparison.

   Run with: dune exec examples/websearch_asymmetric.exe *)

open Experiments

(* a single seed is one traffic realization, and ECMP's collision luck
   varies wildly between realizations — average a few, like the sweeps *)
let seeds = [ 1; 2; 3 ]

let run_one scheme =
  List.map
    (fun seed ->
      let params =
        { Scenario.default_params with Scenario.asymmetric = true; seed }
      in
      Sweep.websearch_run ~mode:Run_mode.default ~scheme ~params ~load:0.6
        ~jobs_per_conn:150)
    seeds

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let () =
  let schemes = [ Scenario.S_ecmp; Scenario.S_edge_flowlet; Scenario.S_clove_ecn ] in
  Format.printf
    "Web-search workload at 60%% load, one S2-L2 fabric link failed:@.@.";
  let results =
    List.map
      (fun scheme ->
        let fcts = run_one scheme in
        ( scheme,
          mean (List.map Workload.Fct_stats.avg fcts),
          mean
            (List.map (fun f -> Workload.Fct_stats.percentile f 99.0) fcts) ))
      schemes
  in
  let table = Stats.Table.create ~header:[ "scheme"; "avg FCT (ms)"; "p99 FCT (ms)" ] in
  List.iter
    (fun (scheme, avg, p99) ->
      Stats.Table.add_float_row table
        ~label:(Scenario.scheme_name scheme)
        [ 1e3 *. avg; 1e3 *. p99 ])
    results;
  Format.printf "%a@." Stats.Table.pp table;
  match results with
  | (_, ecmp, _) :: _ ->
    let _, clove, _ = List.nth results 2 in
    Format.printf "Clove-ECN improves average FCT over ECMP by %.1fx@."
      (ecmp /. clove)
  | [] -> ()
