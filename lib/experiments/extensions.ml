let avg_fct fct = Workload.Fct_stats.avg fct
let asym_params = { Scenario.default_params with Scenario.asymmetric = true }

(* ------------------------ fat-tree demonstration ------------------ *)

(* Section 3.1's "any topology" claim on Scenario's 3-tier Clos: 4 pods of
   2 leaves and 2 spines, 4 cores, 2 hosts per leaf — the k = 4 fat-tree
   graph, with each leaf-spine hop a bundle of two 5G links so every
   stage carries the hosts' 20G per leaf.  Clients sit in pods 0-1 and
   servers in pods 2-3, so every flow crosses the core; [asymmetric]
   fails one link of a client-pod leaf-spine bundle. *)
let fat_tree opts =
  let params =
    {
      Scenario.default_params with
      Scenario.pods = 4;
      leaves = 2;
      cores = 4;
      hosts_per_leaf = 2;
      fabric_rate_bps = 5e9;
      core_rate_bps = 10e9;
      rtt_estimate = Sim_time.us 60;
      asymmetric = true;
    }
  in
  Figures.load_sweep ~id:"ext-fattree"
    ~title:
      "Clove on a 4-pod 3-tier Clos (the k=4 fat-tree graph) with one \
       leaf-spine link down (extension)"
    ~paper_claim:
      "Section 3.1: path discovery \"can work with any topologies with \
       ECMP-based layer-3 routing\" — Clove-ECN should beat ECMP on the \
       3-tier topology too"
    ~cases:
      (List.map
         (fun scheme -> (Scenario.scheme_name scheme, scheme, params))
         [ Scenario.S_ecmp; Scenario.S_edge_flowlet; Scenario.S_clove_ecn ])
    ~loads:[ 0.3; 0.5; 0.7 ] ~metric:avg_fct
    ~metric_name:"avgFCT(s)" ~opts

(* ----------------------- mid-run failure timeline ------------------ *)

(* a long single-seed run (25x the sweep's jobs per connection) so the
   failure and the recovery both land mid-run *)
let failure_timeline opts =
  let jobs = 25 * opts.Sweep.jobs_per_conn in
  let params =
    {
      Scenario.default_params with
      Scenario.seed = 3;
      (* frequent probing so rediscovery is visible within the run *)
      probe_interval = Some (Sim_time.ms 20);
    }
  in
  (* fail one S2-L2 link at t = 60 ms, while traffic is flowing.  Parsed
     against this topology's names, so a renumbering fails here instead
     of silently running without the failure. *)
  let plan =
    match
      Faults.Fault_plan.parse ~names:(Scenario.fault_names params)
        "down s2-l2b @60ms"
    with
    | Ok plan -> plan
    | Error e -> invalid_arg ("Extensions.failure_timeline: " ^ e)
  in
  (* Chaos.simulate pairs client i with server i, which removes
     server-access-link collisions, so the timeline isolates the fabric
     failure; load 0.4 keeps the pre-failure fabric clearly stable so the
     degradation and recovery stand out *)
  let chaos =
    {
      Chaos.plan;
      schemes = [ Scenario.S_ecmp; Scenario.S_clove_ecn ];
      load = 0.4;
      jobs_per_conn = jobs;
      params;
    }
  in
  let run scheme =
    Workload.Fct_stats.timeline (Chaos.simulate chaos scheme plan) ~bucket_sec:0.01
  in
  let ecmp = run Scenario.S_ecmp in
  let clove = run Scenario.S_clove_ecn in
  let table =
    Stats.Table.create ~header:[ "t(ms)/avgFCT(ms)"; "ECMP"; "Clove-ECN" ]
  in
  let value timeline t0 =
    match List.find_opt (fun (t, _) -> abs_float (t -. t0) < 1e-9) timeline with
    | Some (_, s) -> 1e3 *. Stats.Summary.mean s
    | None -> nan
  in
  let buckets =
    List.sort_uniq Float.compare (List.map fst ecmp @ List.map fst clove)
  in
  List.iter
    (fun t0 ->
      Stats.Table.add_float_row table
        ~label:(Printf.sprintf "%.0f" (1e3 *. t0))
        [ value ecmp t0; value clove t0 ])
    buckets;
  {
    Figures.id = "ext-failure";
    title = "Mid-run link failure at t=60ms: FCT by job arrival time (extension)";
    paper_claim =
      "Section 3.1: \"probes are sent periodically to adapt to changes and \
       failures\" — Clove should recover to pre-failure FCTs after one \
       probe cycle while ECMP stays degraded";
    table;
  }

(* --------------------------- dctcp guests -------------------------- *)

let dctcp_guests opts =
  Figures.load_sweep ~id:"ext-dctcp"
    ~title:"Clove-ECN with DCTCP guest stacks, asymmetric (extension)"
    ~paper_claim:
      "Section 7: DCTCP congestion control is complementary to Clove load \
       balancing and keeps queues shorter"
    ~cases:
      [
        ("Clove-ECN", Scenario.S_clove_ecn, asym_params);
        ( "Clove-ECN + DCTCP guests",
          Scenario.S_clove_ecn,
          { asym_params with Scenario.guest_dctcp = true } );
      ]
    ~loads:[ 0.4; 0.6; 0.8 ] ~metric:avg_fct
    ~metric_name:"avgFCT(s)" ~opts

(* ----------------------------- variants ---------------------------- *)

let variants opts =
  let cases =
    [
      ("Clove-ECN", Scenario.S_clove_ecn, asym_params);
      ("Clove-Latency", Scenario.S_clove_latency, asym_params);
      ( "Clove-Lat+adaptive-gap",
        Scenario.S_clove_latency,
        { asym_params with Scenario.adaptive_gap = true } );
      ( "Clove-ECN+reorder",
        Scenario.S_clove_ecn,
        { asym_params with Scenario.clove_reorder = true } );
      ( "Clove-ECN rewrite",
        Scenario.S_clove_ecn,
        { asym_params with Scenario.rewrite_mode = true } );
      ("LetFlow", Scenario.S_letflow, asym_params);
    ]
  in
  Figures.load_sweep ~id:"ext-variants"
    ~title:"Section 7 variants and LetFlow, asymmetric (extension)"
    ~paper_claim:
      "latency feedback is an alternative congestion signal; flowlet \
       sequence numbers remove residual reordering; the rewrite mode \
       serves non-overlay environments; LetFlow needs new switches for a \
       similar effect to Edge-Flowlet"
    ~cases ~loads:[ 0.5; 0.7 ] ~metric:avg_fct
    ~metric_name:"avgFCT(s)" ~opts

(* ---------------------------- data mining -------------------------- *)

let data_mining opts =
  let base = { asym_params with Scenario.data_mining = true } in
  Figures.load_sweep ~id:"ext-datamining"
    ~title:"Data-mining workload (heavier tail), asymmetric (extension)"
    ~paper_claim:
      "(extension; the paper evaluates web-search only) the ordering should \
       hold for other empirical distributions"
    ~cases:
      (List.map
         (fun scheme -> (Scenario.scheme_name scheme, scheme, base))
         [ Scenario.S_ecmp; Scenario.S_edge_flowlet; Scenario.S_clove_ecn ])
    ~loads:[ 0.4; 0.6 ] ~metric:avg_fct
    ~metric_name:"avgFCT(s)" ~opts

let all =
  [
    ("ext-fattree", fat_tree);
    ("ext-failure", failure_timeline);
    ("ext-dctcp", dctcp_guests);
    ("ext-variants", variants);
    ("ext-datamining", data_mining);
    ( "ext-chaos",
      fun opts ->
        Chaos.report
          ~opts:{ Chaos.default_opts with jobs_per_conn = opts.Sweep.jobs_per_conn }
          () );
  ]

(* ------------------------ determinism matrix ----------------------- *)

let md5 s = Digest.to_hex (Digest.string s)
let plan_of spec = Result.get_ok (Faults.Fault_plan.parse spec)

(* a chaos row digests exactly what [clove-sim chaos] prints *)
let chaos_row name opts =
  (name, fun () -> md5 (Format.asprintf "%a" (Chaos.pp_rows opts) (Chaos.run opts)))

let chaos3_row preset =
  let params = { Chaos.default_opts.Chaos.params with Scenario.pods = 2 } in
  chaos_row ("chaos3-" ^ preset)
    {
      Chaos.plan = plan_of (Result.get_ok (Chaos.preset_spec params preset));
      schemes = [ Scenario.S_caft; Scenario.S_ecmp; Scenario.S_clove_ecn ];
      load = 0.15;
      jobs_per_conn = 120;
      params;
    }

let determinism_rows =
  List.map
    (fun (id, runner) ->
      (id, fun () -> md5 (Format.asprintf "%a@." Figures.pp_report (runner Sweep.quick_opts))))
    (Figures.all @ all)
  @ chaos_row "chaos" { Chaos.default_opts with Chaos.plan = plan_of Chaos.link_down_spec }
    (* the sample picker with failure recovery on, which the figures
       (recovery off) never run *)
    :: chaos_row "chaos-int-latency"
         {
           Chaos.default_opts with
           Chaos.plan = plan_of Chaos.link_down_spec;
           schemes = [ Scenario.S_clove_int; Scenario.S_clove_latency ];
           jobs_per_conn = 120;
         }
    :: List.map chaos3_row Chaos.preset_names
