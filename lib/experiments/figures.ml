type report = {
  id : string;
  title : string;
  paper_claim : string;
  table : Stats.Table.t;
}

let pp_report fmt r =
  Format.fprintf fmt "== %s: %s ==@." r.id r.title;
  Format.fprintf fmt "paper: %s@." r.paper_claim;
  Stats.Table.pp fmt r.table

let capture_ratio ~ecmp ~clove ~conga =
  if ecmp <= conga then nan else (ecmp -. clove) /. (ecmp -. conga)

let testbed_schemes =
  [ Scenario.S_ecmp; Scenario.S_edge_flowlet; Scenario.S_clove_ecn; Scenario.S_mptcp; Scenario.S_presto ]

let ns2_schemes =
  [ Scenario.S_ecmp; Scenario.S_edge_flowlet; Scenario.S_clove_ecn; Scenario.S_clove_int; Scenario.S_conga ]

let default_loads = [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]
let asym_params = { Scenario.default_params with Scenario.asymmetric = true }

let load_sweep ~id ~title ~paper_claim ~cases ~loads ~metric ~metric_name ~opts =
  let header =
    Printf.sprintf "load%%/%s" metric_name :: List.map (fun (label, _, _) -> label) cases
  in
  let table = Stats.Table.create ~header in
  (* one call fans the whole cases x loads grid across domains; the
     results come back load-major, one row of cases per load *)
  let fcts =
    Array.of_list
      (Sweep.websearch_points ~opts
         (List.concat_map
            (fun load -> List.map (fun (_, scheme, params) -> (scheme, params, load)) cases)
            loads))
  in
  let ncases = List.length cases in
  List.iteri
    (fun row load ->
      Stats.Table.add_float_row table
        ~label:(Printf.sprintf "%.0f" (100.0 *. load))
        (List.init ncases (fun col -> metric fcts.((row * ncases) + col))))
    loads;
  { id; title; paper_claim; table }

(* one case per scheme, all on the same params *)
let scheme_cases schemes params =
  List.map (fun scheme -> (Scenario.scheme_name scheme, scheme, params)) schemes

let clove_ecn_case (name, params) = (name, Scenario.S_clove_ecn, params)

let avg_fct fct = Workload.Fct_stats.avg fct

(* Fig. 4b: avg FCT vs load, symmetric; ECMP / Edge-Flowlet / Clove-ECN /
   MPTCP / Presto *)
let fig4b opts =
  load_sweep ~id:"fig4b" ~title:"Avg FCT vs load, symmetric testbed"
    ~paper_claim:
      "all schemes close at low load; at 80% Clove-ECN beats ECMP 2.5x and \
       Edge-Flowlet 1.8x; MPTCP slightly ahead of Clove; Presto ~= Clove"
    ~cases:(scheme_cases testbed_schemes Scenario.default_params)
    ~loads:default_loads ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

(* Fig. 4c: the same under asymmetry (one S2-L2 link down) *)
let fig4c opts =
  load_sweep ~id:"fig4c" ~title:"Avg FCT vs load, asymmetric testbed (one S2-L2 link down)"
    ~paper_claim:
      "ECMP blows up past 50% load; Presto 1.8x better than ECMP at 70% but \
       3.8x behind Clove-ECN; Edge-Flowlet 4.2x better than ECMP at 80%; \
       Clove-ECN best (7.5x over ECMP at 80%), MPTCP close"
    ~cases:(scheme_cases testbed_schemes asym_params)
    ~loads:default_loads ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

(* Fig. 5a: avg FCT of <100 KB flows vs load, asymmetric *)
let fig5a opts =
  let cutoff = Scenario.scaled_cutoff asym_params Workload.Fct_stats.mice_cutoff in
  load_sweep ~id:"fig5a" ~title:"Avg FCT of <100KB flows vs load, asymmetric"
    ~paper_claim:"relative ordering as overall FCT; Edge-Flowlet 3.7x over ECMP at 70%"
    ~cases:(scheme_cases testbed_schemes asym_params) ~loads:default_loads
    ~metric:(fun fct -> Workload.Fct_stats.avg ~max_size:cutoff fct)
    ~metric_name:"avgFCT(s)<100KB" ~opts

(* Fig. 5b: avg FCT of >10 MB flows vs load, asymmetric *)
let fig5b opts =
  let cutoff = Scenario.scaled_cutoff asym_params Workload.Fct_stats.elephant_cutoff in
  load_sweep ~id:"fig5b" ~title:"Avg FCT of >10MB flows vs load, asymmetric"
    ~paper_claim:"larger spread than mice: Edge-Flowlet 4.1x over ECMP at 70%"
    ~cases:(scheme_cases testbed_schemes asym_params) ~loads:default_loads
    ~metric:(fun fct -> Workload.Fct_stats.avg ~min_size:cutoff fct)
    ~metric_name:"avgFCT(s)>10MB" ~opts

(* Fig. 5c: 99th-percentile FCT vs load, asymmetric *)
let fig5c opts =
  load_sweep ~id:"fig5c" ~title:"99th-percentile FCT vs load, asymmetric"
    ~paper_claim:
      "MPTCP falls behind at the tail (static subflow placement): Clove-ECN \
       2.7x better than MPTCP at 60% load"
    ~cases:(scheme_cases testbed_schemes asym_params)
    ~loads:default_loads
    ~metric:(fun fct -> Workload.Fct_stats.percentile fct 99.0)
    ~metric_name:"p99FCT(s)" ~opts

(* Fig. 6: Clove-ECN parameter sensitivity (flowlet gap x RTT, ECN
   threshold) *)
let fig6 opts =
  let rtt = asym_params.Scenario.rtt_estimate in
  let variant name gap_mult thresh =
    clove_ecn_case
      ( name,
        {
          asym_params with
          Scenario.flowlet_gap = Some (Sim_time.mul_span rtt gap_mult);
          ecn_threshold_pkts = thresh;
        } )
  in
  load_sweep ~id:"fig6" ~title:"Clove-ECN parameter sensitivity, asymmetric"
    ~paper_claim:
      "too-small flowlet gap (0.2 RTT) degrades ~5x (reordering); too-large \
       (5 RTT) suffers elephant collisions; ECN threshold 40 reacts too \
       slowly (4x worse at 80%)"
    ~cases:
      [
        variant "Clove-best (1*RTT, 20pkts)" 1.0 20;
        variant "Clove (0.2*RTT, 20pkts)" 0.2 20;
        variant "Clove (5*RTT, 20pkts)" 5.0 20;
        variant "Clove (1*RTT, 40pkts)" 1.0 40;
      ]
    ~loads:default_loads ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

(* Fig. 7: incast, client goodput vs request fan-in; Clove-ECN /
   Edge-Flowlet / MPTCP.  The preset is fixed — 15 requests per fan-in
   over seeds 1-3 — whatever the sweep options. *)
let fig7 mode =
  let requests = 15 in
  (* the incast experiment uses the paper's full 16 servers so the fan-in
     axis matches; the fabric scales with the host count *)
  let params =
    {
      Scenario.default_params with
      Scenario.hosts_per_leaf = 16;
      fabric_rate_bps = 40e9;
    }
  in
  let schemes = [ Scenario.S_clove_ecn; Scenario.S_edge_flowlet; Scenario.S_mptcp ] in
  let fanouts = [ 1; 3; 5; 7; 9; 11; 13; 15 ] in
  let total_bytes = int_of_float (1e7 *. params.Scenario.size_scale) in
  let header = "fanin/goodput(Gbps)" :: List.map Scenario.scheme_name schemes in
  let table = Stats.Table.create ~header in
  List.iter
    (fun fanout ->
      let values =
        List.map
          (fun scheme ->
            Sweep.incast_point ~mode ~scheme ~params ~fanout ~total_bytes ~requests
              ~seeds:[ 1; 2; 3 ]
            /. 1e9)
          schemes
      in
      Stats.Table.add_float_row table ~label:(string_of_int fanout) values)
    fanouts;
  {
    id = "fig7";
    title = "Incast: client goodput vs request fan-in";
    paper_claim =
      "MPTCP degrades with fan-in (simultaneous subflow window ramp-up \
       bursts): Clove-ECN 1.9x better at fanout 10, 3.4x at 16";
    table;
  }

(* the NS2 setup: 3 connections per client *)
let ns2_params = { Scenario.default_params with Scenario.conns_per_client = 3 }

(* Fig. 8a: avg FCT vs load, symmetric; adds Clove-INT and CONGA *)
let fig8a opts =
  load_sweep ~id:"fig8a" ~title:"Avg FCT vs load, symmetric (packet-level sim)"
    ~paper_claim:
      "Clove-ECN 1.4x over ECMP at 80%; Clove-INT and CONGA another ~1.1x \
       better; Clove-ECN captures ~82% of the ECMP-to-CONGA gain"
    ~cases:(scheme_cases ns2_schemes ns2_params)
    ~loads:[ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]
    ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

(* Fig. 8b: the same under asymmetry *)
let fig8b opts =
  load_sweep ~id:"fig8b" ~title:"Avg FCT vs load, asymmetric (packet-level sim)"
    ~paper_claim:
      "Clove-ECN 3x over ECMP and 1.8x over Edge-Flowlet at 70%; Clove-INT \
       and CONGA 1.2x better still; Clove-ECN captures ~80% of the gain, \
       Clove-INT ~95%"
    ~cases:(scheme_cases ns2_schemes { ns2_params with Scenario.asymmetric = true })
    ~loads:[ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ]
    ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

(* Fig. 9: CDF of mice FCTs at 70% load, asymmetric; ECMP / Clove-ECN /
   CONGA *)
let fig9 opts =
  let params = { ns2_params with Scenario.asymmetric = true } in
  let schemes = [ Scenario.S_ecmp; Scenario.S_clove_ecn; Scenario.S_conga ] in
  let cutoff = Scenario.scaled_cutoff params Workload.Fct_stats.mice_cutoff in
  let fcts =
    Sweep.websearch_points ~opts
      (List.map (fun scheme -> (scheme, params, 0.7)) schemes)
  in
  let header = "percentile/FCT(s)" :: List.map Scenario.scheme_name schemes in
  let table = Stats.Table.create ~header in
  List.iter
    (fun p ->
      let values =
        List.map (fun fct -> Workload.Fct_stats.percentile ~max_size:cutoff fct p) fcts
      in
      Stats.Table.add_float_row table ~label:(Printf.sprintf "p%.0f" p) values)
    [ 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0 ];
  {
    id = "fig9";
    title = "CDF of mice FCTs at 70% load, asymmetric";
    paper_claim =
      "Clove-ECN's p99 captures ~80% of the gain between ECMP's and CONGA's \
       p99";
    table;
  }

(* ------------------------------ ablations ------------------------- *)

(* each ablation is one Clove-ECN case per variant of the asymmetric
   testbed, at 50% and 70% load *)
let ablation_loads = [ 0.5; 0.7 ]

let ablation_relay opts =
  (* scales the RTT estimate, flowlet gap pinned at the unscaled RTT: this
     moves the relay interval (RTT/2) together with every other
     RTT-derived Clove timer — congested window, feedback deadline, Presto
     reorder timeout, and the recovery timers, idle here (recovery off) *)
  let rtt = asym_params.Scenario.rtt_estimate in
  let scaled mult =
    {
      asym_params with
      Scenario.rtt_estimate = Sim_time.mul_span rtt mult;
      flowlet_gap = Some rtt;
    }
  in
  load_sweep ~id:"ablation-relay"
    ~title:
      "Clove-ECN sensitivity to the RTT estimate behind the ECN relay \
       interval and the other RTT-derived timers (asymmetric)"
    ~paper_claim:
      "low relay rates act on stale state; very high rates over-react (and \
       cost dataplane cycles); 0.5-2 RTT is robust"
    ~cases:
      (List.map clove_ecn_case
         [ ("0.5*RTT", scaled 0.5); ("2*RTT", scaled 2.0); ("8*RTT", scaled 8.0) ])
    ~loads:ablation_loads ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

let ablation_paths opts =
  (* k is clamped by the topology's 4 distinct paths; k=1 and k=2 restrict
     Clove to a subset, showing the value of full path diversity.  The
     knob is Clove_config.k_paths, reached through the scenario's
     [k_paths_override]. *)
  load_sweep ~id:"ablation-paths"
    ~title:"Clove-ECN sensitivity to number of discovered paths k (asymmetric)"
    ~paper_claim:"(design ablation; no paper figure) fewer paths => fewer escape routes"
    ~cases:
      (List.map
         (fun k ->
           clove_ecn_case
             ( Printf.sprintf "k=%d" k,
               { asym_params with Scenario.k_paths_override = Some k } ))
         [ 1; 2; 4 ])
    ~loads:ablation_loads ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

let ablation_beta opts =
  let cut beta = { asym_params with Scenario.weight_cut_override = Some beta } in
  load_sweep ~id:"ablation-beta"
    ~title:"Clove-ECN sensitivity to weight-reduction fraction (asymmetric)"
    ~paper_claim:"(design ablation; paper says 'e.g., by a third')"
    ~cases:
      (List.map clove_ecn_case
         [
           ("beta=1/6", cut (1.0 /. 6.0));
           ("beta=1/3", cut (1.0 /. 3.0));
           ("beta=2/3", cut (2.0 /. 3.0));
         ])
    ~loads:ablation_loads ~metric:avg_fct ~metric_name:"avgFCT(s)" ~opts

let all =
  [
    ("fig4b", fig4b);
    ("fig4c", fig4c);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", fig5c);
    ("fig6", fig6);
    ("fig7", fun opts -> fig7 opts.Sweep.mode);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9", fig9);
    ("ablation-relay", ablation_relay);
    ("ablation-paths", ablation_paths);
    ("ablation-beta", ablation_beta);
  ]
