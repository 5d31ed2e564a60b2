(* Benchmark harness.

   By default: end-to-end scenario records (part 3), the parallel sweep
   (part 4) and chaos (part 5) cross-checks, then figure regeneration
   (part 1) — for every figure in the paper's evaluation (Sections 5-6)
   plus the DESIGN.md ablations, run the corresponding experiment and
   print the same rows/series the paper plots.  Pass figure ids as argv
   to restrict (e.g. `bench/main.exe fig4c fig7`); set
   CLOVE_BENCH_QUICK=1 for a fast smoke pass, CLOVE_BENCH_FULL=1 for the
   slow high-fidelity pass.  The remaining parts run alone behind
   --hotpath, --stream-fct, --pdes and --chaos3.  Per-call dataplane
   microbenchmarks live in perfbench (`probe.exe micro`). *)

open Experiments

(* ---------------------- part 1: figure regeneration ---------------- *)

let opts () =
  match (Sys.getenv_opt "CLOVE_BENCH_QUICK", Sys.getenv_opt "CLOVE_BENCH_FULL") with
  | Some _, _ -> Sweep.quick_opts
  | _, Some _ -> { Sweep.jobs_per_conn = 400; seeds = [ 1; 2; 3 ] }
  | None, None -> { Sweep.jobs_per_conn = 150; seeds = [ 1; 2; 3 ] }

let incast_requests () =
  match Sys.getenv_opt "CLOVE_BENCH_QUICK" with Some _ -> 5 | None -> 15

let run_figures ids =
  let opts = opts () in
  let runners =
    [
      ("fig4b", fun () -> Figures.fig4b ~opts ());
      ("fig4c", fun () -> Figures.fig4c ~opts ());
      ("fig5a", fun () -> Figures.fig5a ~opts ());
      ("fig5b", fun () -> Figures.fig5b ~opts ());
      ("fig5c", fun () -> Figures.fig5c ~opts ());
      ("fig6", fun () -> Figures.fig6 ~opts ());
      ("fig7", fun () -> Figures.fig7 ~requests:(incast_requests ()) ());
      ("fig8a", fun () -> Figures.fig8a ~opts ());
      ("fig8b", fun () -> Figures.fig8b ~opts ());
      ("fig9", fun () -> Figures.fig9 ~opts ());
      ("ablation-relay", fun () -> Figures.ablation_relay ~opts ());
      ("ablation-paths", fun () -> Figures.ablation_paths ~opts ());
      ("ablation-beta", fun () -> Figures.ablation_beta ~opts ());
    ]
    @ List.map
        (fun (id, runner) -> (id, fun () -> runner opts))
        Extensions.all
  in
  let selected =
    match ids with
    | [] -> runners
    | ids -> List.filter (fun (id, _) -> List.mem id ids) runners
  in
  let csv_dir = "results" in
  (try Unix.mkdir csv_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (id, runner) ->
      (* harness CPU-time accounting, not simulation time — lint: allow sema-wall-clock *)
      let t0 = Sys.time () in
      let report = runner () in
      Format.printf "%a" Figures.pp_report report;
      (* harness CPU-time accounting, not simulation time — lint: allow sema-wall-clock *)
      Format.printf "(%s regenerated in %.1fs cpu)@.@." id (Sys.time () -. t0);
      (* machine-readable copy for plotting *)
      let oc = open_out (Filename.concat csv_dir (id ^ ".csv")) in
      output_string oc (Stats.Table.csv report.Figures.table);
      close_out oc)
    selected

(* ------------- part 3: end-to-end scenario throughput -------------- *)

(* Whole-simulation benchmarks: run a seeded websearch scenario to
   completion and record wall time, scheduler throughput and FCT
   percentiles as a machine-readable BENCH_<scenario>.json, so CI can
   track simulator performance and result drift across commits. *)
let scenario_benchmarks () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let jobs =
    match Sys.getenv_opt "CLOVE_BENCH_QUICK" with Some _ -> 20 | None -> 60
  in
  let load = 0.6 in
  Format.printf "== scenario throughput (load %.1f, %d jobs/conn) ==@." load jobs;
  List.iter
    (fun (name, scheme) ->
      let params =
        { Scenario.default_params with Scenario.asymmetric = true; seed = 1 }
      in
      let scn = Scenario.build ~scheme params in
      let servers = Scenario.servers scn in
      let conns =
        Array.mapi
          (fun i client ->
            Scenario.connect scn ~src:client ~dst:servers.(i mod Array.length servers))
          (Scenario.clients scn)
      in
      let cfg =
        {
          Workload.Websearch.load;
          bisection_bps = Scenario.bisection_bps scn;
          jobs_per_conn = jobs;
          size_dist = Scenario.size_dist scn;
          start_at = Scenario.warmup scn;
        }
      in
      let sched = Scenario.sched scn in
      let minor0 = Gc.minor_words () in
      (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
      let t0 = Unix.gettimeofday () in
      let fct = Workload.Websearch.run ~sched ~rng:(Scenario.rng scn) ~conns cfg in
      (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
      let wall = Unix.gettimeofday () -. t0 in
      let minor_words = Gc.minor_words () -. minor0 in
      let events = Scheduler.events_fired sched in
      let sim_sec = Sim_time.to_sec (Scheduler.now sched) in
      let flows_tracked =
        Array.fold_left
          (fun acc host -> acc + Clove.Vswitch.flows_tracked (Scenario.vswitch scn host))
          0
          (Array.append (Scenario.clients scn) (Scenario.servers scn))
      in
      Scenario.quiesce scn;
      let eps = if wall > 0.0 then float_of_int events /. wall else nan in
      let record =
        Analysis.Json_out.Obj
          [
            ("scenario", String name);
            ("scheme", String (Scenario.scheme_name scheme));
            ("load", Float load);
            ("jobs_per_conn", Int jobs);
            ("seed", Int params.Scenario.seed);
            (* a single scenario is inherently serial; parallelism applies
               to sweeps of independent points (see sweep-parallel) *)
            ("domains", Int 1);
            ("wall_time_sec", Float wall);
            ("sim_time_sec", Float sim_sec);
            ("events_fired", Int events);
            ("events_per_sec", Float eps);
            ("minor_words", Float minor_words);
            ("speedup_vs_serial", Float 1.0);
            ("flows", Int (Workload.Fct_stats.count fct));
            ("flows_tracked", Int flows_tracked);
            ("fct_avg_sec", Float (Workload.Fct_stats.avg fct));
            ("fct_p50_sec", Float (Workload.Fct_stats.percentile fct 50.0));
            ("fct_p95_sec", Float (Workload.Fct_stats.percentile fct 95.0));
            ("fct_p99_sec", Float (Workload.Fct_stats.percentile fct 99.0));
          ]
      in
      let path = Filename.concat "results" ("BENCH_" ^ name ^ ".json") in
      Analysis.Json_out.to_file path record;
      Format.printf "  %-24s %8.2fs wall  %9.0f events/s  p99 %.4fs  -> %s@." name
        wall eps
        (Workload.Fct_stats.percentile fct 99.0)
        path)
    [
      ("websearch-ecmp", Scenario.S_ecmp);
      ("websearch-clove-ecn", Scenario.S_clove_ecn);
    ];
  Format.printf "@."

(* ------------- part 4: parallel sweep engine benchmark ------------- *)

(* The same grid of independent experiment points run serially and across
   the domain pool.  Records the speedup and cross-checks that both runs
   merge to identical statistics — the determinism guarantee the sweep
   engine is built on. *)
let parallel_sweep_benchmark () =
  let jobs =
    match Sys.getenv_opt "CLOVE_BENCH_QUICK" with Some _ -> 6 | None -> 20
  in
  let points =
    Array.of_list
      (List.concat_map
         (fun scheme ->
           List.concat_map
             (fun load ->
               List.map
                 (fun seed ->
                   {
                     Sweep.pt_scheme = scheme;
                     pt_params =
                       {
                         Scenario.default_params with
                         Scenario.asymmetric = true;
                         seed;
                       };
                     pt_load = load;
                     pt_jobs_per_conn = jobs;
                   })
                 [ 1; 2 ])
             [ 0.4; 0.6 ])
         [ Scenario.S_ecmp; Scenario.S_clove_ecn ])
  in
  let time f =
    (* wall-clock speedup measurement of the harness — lint: allow sema-wall-clock *)
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (* wall-clock speedup measurement of the harness — lint: allow sema-wall-clock *)
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, serial_wall =
    time (fun () -> Sweep.run_points_parallel ~domains:1 points)
  in
  let domains = Domain_pool.default_domains () in
  let minor0 = Gc.minor_words () in
  let par, par_wall = time (fun () -> Sweep.run_points_parallel ~domains points) in
  let minor_words = Gc.minor_words () -. minor0 in
  let identical =
    let ok = ref true in
    Array.iteri
      (fun i s ->
        if
          Workload.Fct_stats.canonical_dump s
          <> Workload.Fct_stats.canonical_dump par.(i)
        then ok := false)
      serial;
    !ok
  in
  let speedup = if par_wall > 0.0 then serial_wall /. par_wall else nan in
  let record =
    Analysis.Json_out.Obj
      [
        ("scenario", String "sweep-parallel");
        ("points", Int (Array.length points));
        ("jobs_per_conn", Int jobs);
        ("domains", Int domains);
        ("wall_time_sec", Float par_wall);
        ("serial_wall_time_sec", Float serial_wall);
        ("speedup_vs_serial", Float speedup);
        ("minor_words", Float minor_words);
        ("deterministic", Bool identical);
      ]
  in
  let path = Filename.concat "results" "BENCH_sweep-parallel.json" in
  Analysis.Json_out.to_file path record;
  Format.printf
    "== parallel sweep (%d points, %d domain%s) ==@.  serial %.2fs  parallel \
     %.2fs  speedup %.2fx  deterministic %b  -> %s@.@."
    (Array.length points) domains
    (if domains = 1 then "" else "s")
    serial_wall par_wall speedup identical path;
  if not identical then begin
    Format.eprintf "parallel sweep diverged from serial results@.";
    exit 1
  end

(* ------------- part 5: chaos resilience benchmark ------------------ *)

(* The ext-chaos scorecard run serially and across the domain pool with
   the same seed.  Records the per-scheme resilience verdicts as
   BENCH_chaos.json and cross-checks that both runs produce byte-identical
   FCT records — fault injection is scheduler-driven and must not break
   the sweep engine's determinism guarantee. *)
let chaos_benchmark () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let jobs =
    match Sys.getenv_opt "CLOVE_BENCH_QUICK" with Some _ -> 250 | None -> 750
  in
  let opts = { Chaos.default_opts with Chaos.jobs_per_conn = jobs } in
  let time f =
    (* wall-clock speedup measurement of the harness — lint: allow sema-wall-clock *)
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (* wall-clock speedup measurement of the harness — lint: allow sema-wall-clock *)
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, serial_wall = time (fun () -> Chaos.run ~domains:1 opts) in
  let domains = Domain_pool.default_domains () in
  let par, par_wall = time (fun () -> Chaos.run ~domains opts) in
  let identical =
    Array.for_all2
      (fun (s : Chaos.row) (p : Chaos.row) ->
        Workload.Fct_stats.canonical_dump s.Chaos.r_fct
        = Workload.Fct_stats.canonical_dump p.Chaos.r_fct)
      serial par
  in
  let speedup = if par_wall > 0.0 then serial_wall /. par_wall else nan in
  let row_json (r : Chaos.row) =
    Analysis.Json_out.Obj
      [
        ("scheme", String (Scenario.scheme_name r.Chaos.r_scheme));
        ("pre_fct_avg_sec", Float r.Chaos.r_pre_avg);
        ("fault_fct_avg_sec", Float r.Chaos.r_fault_avg);
        ("post_fct_avg_sec", Float r.Chaos.r_post_avg);
        ("post_baseline_fct_avg_sec", Float r.Chaos.r_post_base_avg);
        ("post_fct_p99_sec", Float r.Chaos.r_post_p99);
        ("goodput_lost_bytes", Float r.Chaos.r_goodput_lost);
        ( "time_to_recover_sec",
          match r.Chaos.r_time_to_recover with
          | None -> Analysis.Json_out.Null
          | Some t -> Float t );
        ("recovered", Bool r.Chaos.r_recovered);
        ( "fct_digest",
          String
            (Digest.to_hex
               (Digest.string (Workload.Fct_stats.canonical_dump r.Chaos.r_fct)))
        );
      ]
  in
  let record =
    Analysis.Json_out.Obj
      [
        ("scenario", String "chaos");
        ("fault_plan", String Chaos.default_plan_spec);
        ("load", Float opts.Chaos.load);
        ("jobs_per_conn", Int jobs);
        ("seed", Int opts.Chaos.seed);
        ("domains", Int domains);
        ("wall_time_sec", Float par_wall);
        ("serial_wall_time_sec", Float serial_wall);
        ("speedup_vs_serial", Float speedup);
        ("deterministic", Bool identical);
        ("rows", List (Array.to_list (Array.map row_json par)));
      ]
  in
  let path = Filename.concat "results" "BENCH_chaos.json" in
  Analysis.Json_out.to_file path record;
  Format.printf
    "== chaos resilience (%s; %d jobs/conn) ==@.  serial %.2fs  parallel \
     %.2fs (%d domain%s)  deterministic %b  -> %s@."
    Chaos.default_plan_spec jobs serial_wall par_wall domains
    (if domains = 1 then "" else "s")
    identical path;
  Array.iter
    (fun (r : Chaos.row) ->
      Format.printf "  %-24s recovered %b  ttr %s@."
        (Scenario.scheme_name r.Chaos.r_scheme)
        r.Chaos.r_recovered
        (match r.Chaos.r_time_to_recover with
        | None -> "-"
        | Some t -> Printf.sprintf "%.0fms" (1e3 *. t)))
    par;
  Format.printf "@.";
  if not identical then begin
    Format.eprintf "chaos benchmark: parallel run diverged from serial@.";
    exit 1
  end

(* ------------- part 5b: 3-tier gray-failure benchmark -------------- *)

(* The flagship 3-tier chaos scenario: 2 pods, permanent core-brownout
   preset, ECMP vs Clove-ECN vs CAFT.  Records the resilience verdicts
   as BENCH_chaos3.json, cross-checks serial-vs-parallel digests, and
   fails if CAFT's time-to-recover does not beat ECMP's (the headline
   claim of the core-tier generalization). *)
let chaos3_benchmark () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* the sustained-suffix time-to-recover needs the run to outlast the
     post-fault backlog, so the job count does not shrink in quick mode *)
  let jobs = 600 in
  let params =
    {
      Chaos.default_opts.Chaos.params with
      Scenario.pods = 2;
      fabric_rate_bps =
        float_of_int Chaos.default_opts.Chaos.params.Scenario.hosts_per_leaf
        *. 10e9 /. 4.0;
    }
  in
  let spec =
    match Chaos.preset_spec params "core-brownout" with
    | Ok s -> s
    | Error e ->
      Format.eprintf "chaos3 benchmark: %s@." e;
      exit 1
  in
  let plan =
    match
      Faults.Fault_plan.parse ~names:(Scenario.fault_names params) spec
    with
    | Ok p -> p
    | Error e ->
      Format.eprintf "chaos3 benchmark: bad preset: %s@." e;
      exit 1
  in
  let opts =
    {
      Chaos.default_opts with
      Chaos.plan;
      schemes = [ Scenario.S_caft; Scenario.S_ecmp; Scenario.S_clove_ecn ];
      (* ECMP's fault-free baseline must be stable at this load so the
         verdict isolates the gray core, not hash-collision backlog *)
      load = 0.15;
      jobs_per_conn = jobs;
      params;
    }
  in
  let time f =
    (* wall-clock speedup measurement of the harness — lint: allow sema-wall-clock *)
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (* wall-clock speedup measurement of the harness — lint: allow sema-wall-clock *)
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, serial_wall = time (fun () -> Chaos.run ~domains:1 opts) in
  let domains = Domain_pool.default_domains () in
  let par, par_wall = time (fun () -> Chaos.run ~domains opts) in
  let identical =
    Array.for_all2
      (fun (s : Chaos.row) (p : Chaos.row) ->
        Workload.Fct_stats.canonical_dump s.Chaos.r_fct
        = Workload.Fct_stats.canonical_dump p.Chaos.r_fct)
      serial par
  in
  let find scheme =
    Array.to_list par |> List.find_opt (fun r -> r.Chaos.r_scheme = scheme)
  in
  let ttr r =
    match r.Chaos.r_time_to_recover with Some t -> t | None -> infinity
  in
  let caft_beats_ecmp =
    match (find Scenario.S_caft, find Scenario.S_ecmp) with
    | Some c, Some e -> c.Chaos.r_recovered && ttr c < ttr e
    | _ -> false
  in
  let row_json (r : Chaos.row) =
    Analysis.Json_out.Obj
      [
        ("scheme", String (Scenario.scheme_name r.Chaos.r_scheme));
        ("pre_fct_avg_sec", Float r.Chaos.r_pre_avg);
        ("post_fct_avg_sec", Float r.Chaos.r_post_avg);
        ("post_baseline_fct_avg_sec", Float r.Chaos.r_post_base_avg);
        ("post_fct_p99_sec", Float r.Chaos.r_post_p99);
        ("goodput_lost_bytes", Float r.Chaos.r_goodput_lost);
        ( "time_to_recover_sec",
          match r.Chaos.r_time_to_recover with
          | None -> Analysis.Json_out.Null
          | Some t -> Float t );
        ("recovered", Bool r.Chaos.r_recovered);
        ( "fct_digest",
          String
            (Digest.to_hex
               (Digest.string (Workload.Fct_stats.canonical_dump r.Chaos.r_fct)))
        );
      ]
  in
  let record =
    Analysis.Json_out.Obj
      [
        ("scenario", String "chaos3");
        ("preset", String "core-brownout");
        ("fault_plan", String spec);
        ("pods", Int params.Scenario.pods);
        ("load", Float opts.Chaos.load);
        ("jobs_per_conn", Int jobs);
        ("seed", Int opts.Chaos.seed);
        ("domains", Int domains);
        ("wall_time_sec", Float par_wall);
        ("serial_wall_time_sec", Float serial_wall);
        ("deterministic", Bool identical);
        ("caft_beats_ecmp", Bool caft_beats_ecmp);
        ("rows", List (Array.to_list (Array.map row_json par)));
      ]
  in
  let path = Filename.concat "results" "BENCH_chaos3.json" in
  Analysis.Json_out.to_file path record;
  Format.printf
    "== 3-tier gray failure (core-brownout; %d pods; %d jobs/conn) ==@.  \
     serial %.2fs  parallel %.2fs (%d domain%s)  deterministic %b  \
     caft-beats-ecmp %b  -> %s@."
    params.Scenario.pods jobs serial_wall par_wall domains
    (if domains = 1 then "" else "s")
    identical caft_beats_ecmp path;
  Array.iter
    (fun (r : Chaos.row) ->
      Format.printf "  %-24s recovered %b  ttr %s  post %.3fms@."
        (Scenario.scheme_name r.Chaos.r_scheme)
        r.Chaos.r_recovered
        (match r.Chaos.r_time_to_recover with
        | None -> "-"
        | Some t -> Printf.sprintf "%.0fms" (1e3 *. t))
        (1e3 *. r.Chaos.r_post_avg))
    par;
  Format.printf "@.";
  if not identical then begin
    Format.eprintf "chaos3 benchmark: parallel run diverged from serial@.";
    exit 1
  end;
  if not caft_beats_ecmp then begin
    Format.eprintf
      "chaos3 benchmark: CAFT did not beat ECMP's time-to-recover@.";
    exit 1
  end

(* ------------- part 6: hot-path allocation budget ------------------ *)

type hotpath_run = {
  hp_wall : float; (* best of the reps *)
  hp_minor_words : float;
  hp_promoted_words : float;
  hp_major_words : float;
  hp_events : int;
  hp_wheel_scheduled : int;
  hp_heap_scheduled : int;
  hp_compactions : int;
  hp_pool_hits : int;
  hp_pool_misses : int;
  hp_pool_dropped : int;
  hp_flows_tracked : int;
}

(* Deterministic allocation ceiling for the event path, in minor-heap
   words per event.  Minor words are a property of the code, not the
   host — the same build allocates the same words wherever it runs — so
   unlike events/s this gate cannot be loosened by a noisy CI box.
   History: seed closure-per-event heap 21.1 w/e, wheel + tags 12.9 w/e,
   packet arenas + flat records 6.4 w/e. *)
let minor_words_budget = 8.0

(* The flagship websearch scenario (failure recovery on, so the maintain
   tick and idle flowlet eviction run) on the scheduler's only path:
   timer wheel, tagged events, one dispatch per event.  The GC, pool,
   wheel and compaction counters land in results/BENCH_hotpath.json;
   exits non-zero when minor words/event exceed the budget.  Wall time
   is the best of [reps] back-to-back runs: the minimum is the closest
   observable to the true cost on a timeshared box. *)
let hotpath_benchmark () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let quick = Sys.getenv_opt "CLOVE_BENCH_QUICK" <> None in
  let jobs = if quick then 20 else 60 in
  let reps = if quick then 2 else 3 in
  let load = 0.6 in
  let seed = 1 in
  let run_once () =
    let params =
      {
        Scenario.default_params with
        Scenario.asymmetric = true;
        failure_recovery = true;
        seed;
      }
    in
    let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
    let servers = Scenario.servers scn in
    let conns =
      Array.mapi
        (fun i client ->
          Scenario.connect scn ~src:client ~dst:servers.(i mod Array.length servers))
        (Scenario.clients scn)
    in
    let cfg =
      {
        Workload.Websearch.load;
        bisection_bps = Scenario.bisection_bps scn;
        jobs_per_conn = jobs;
        size_dist = Scenario.size_dist scn;
        start_at = Scenario.warmup scn;
      }
    in
    let sched = Scenario.sched scn in
    Netsim.Packet_pool.reset_stats ();
    let minor0, promoted0, major0 = Gc.counters () in
    (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
    let t0 = Unix.gettimeofday () in
    let (_ : Workload.Fct_stats.t) =
      Workload.Websearch.run ~sched ~rng:(Scenario.rng scn) ~conns cfg
    in
    (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
    let wall = Unix.gettimeofday () -. t0 in
    let minor1, promoted1, major1 = Gc.counters () in
    let pool = Netsim.Packet_pool.stats () in
    (* table pressure = the busiest vswitch's high-water mark, not the
       post-run residual (idle eviction empties tables before we poll) *)
    let flows_tracked =
      Array.fold_left
        (fun acc host ->
          max acc (Clove.Vswitch.peak_flows_tracked (Scenario.vswitch scn host)))
        0
        (Array.append (Scenario.clients scn) servers)
    in
    let r =
      {
        hp_wall = wall;
        hp_minor_words = minor1 -. minor0;
        hp_promoted_words = promoted1 -. promoted0;
        hp_major_words = major1 -. major0;
        hp_events = Scheduler.events_fired sched;
        hp_wheel_scheduled = Scheduler.wheel_scheduled sched;
        hp_heap_scheduled = Scheduler.heap_scheduled sched;
        hp_compactions = Scheduler.compactions sched;
        hp_pool_hits = pool.Netsim.Packet_pool.hits;
        hp_pool_misses = pool.Netsim.Packet_pool.misses;
        hp_pool_dropped = pool.Netsim.Packet_pool.dropped;
        hp_flows_tracked = flows_tracked;
      }
    in
    Scenario.quiesce scn;
    r
  in
  (* keep the last rep's counters (identical across reps — the runs are
     deterministic) but the best wall time *)
  let r = ref (run_once ()) in
  for _ = 2 to reps do
    let next = run_once () in
    r := { next with hp_wall = Float.min next.hp_wall !r.hp_wall }
  done;
  let r = !r in
  let events = float_of_int r.hp_events in
  let per_event = if r.hp_events > 0 then r.hp_minor_words /. events else nan in
  let eps = if r.hp_wall > 0.0 then events /. r.hp_wall else nan in
  let wheel_fraction =
    let scheduled = r.hp_wheel_scheduled + r.hp_heap_scheduled in
    if scheduled > 0 then float_of_int r.hp_wheel_scheduled /. float_of_int scheduled
    else 0.0
  in
  let pool_hit_rate =
    let acquires = r.hp_pool_hits + r.hp_pool_misses in
    if acquires > 0 then float_of_int r.hp_pool_hits /. float_of_int acquires
    else nan
  in
  let record =
    Analysis.Json_out.Obj
      [
        ("scenario", String "hotpath");
        ("scheme", String "clove-ecn");
        ("load", Float load);
        ("jobs_per_conn", Int jobs);
        ("seed", Int seed);
        ("reps", Int reps);
        ("failure_recovery", Bool true);
        ("wall_time_sec", Float r.hp_wall);
        ("events_fired", Int r.hp_events);
        ("events_per_sec", Float eps);
        ("minor_words", Float r.hp_minor_words);
        ("minor_words_per_event", Float per_event);
        ("minor_words_budget_per_event", Float minor_words_budget);
        ("promoted_words", Float r.hp_promoted_words);
        ("major_words", Float r.hp_major_words);
        ("wheel_scheduled", Int r.hp_wheel_scheduled);
        ("heap_scheduled", Int r.hp_heap_scheduled);
        ("wheel_fraction", Float wheel_fraction);
        ("compactions", Int r.hp_compactions);
        ("pool_hits", Int r.hp_pool_hits);
        ("pool_misses", Int r.hp_pool_misses);
        ("pool_dropped", Int r.hp_pool_dropped);
        ("pool_hit_rate", Float pool_hit_rate);
        ("flows_tracked", Int r.hp_flows_tracked);
      ]
  in
  let path = Filename.concat "results" "BENCH_hotpath.json" in
  Analysis.Json_out.to_file path record;
  Format.printf
    "== hot path (websearch/clove-ecn, load %.1f, %d jobs/conn, best of %d) ==@.\
    \  %8.2fs wall  %9.0f events/s  %6.1f minor words/event@.\
    \  wheel share %.2f  compactions %d  pool hit rate %.3f  flows tracked %d  \
     -> %s@.@."
    load jobs reps r.hp_wall eps per_event wheel_fraction r.hp_compactions
    pool_hit_rate r.hp_flows_tracked path;
  if per_event > minor_words_budget then begin
    Format.eprintf
      "hot-path benchmark: %.2f minor words/event exceeds the %.1f budget@."
      per_event minor_words_budget;
    exit 1
  end

(* ------------- part 6b: streaming FCT stats benchmark -------------- *)

(* The hotpath scenario at 10x the usual flow count, once with the
   default exact sink (every record stored) and once with the streaming
   q-digest sink.  The streaming run goes first so its top-of-heap
   reading is not inflated by the exact run's record storage.  Recorded
   evidence: live/max heap words per mode (flat for streaming), sketch
   node counts (the O(1) bound), and the streamed p50/p99 against the
   exact percentiles of the very same FCT population — the runs are
   deterministic, so both sinks observe identical samples.  Exits
   non-zero if a streamed quantile's true rank (against the exact run's
   sorted samples) is off by more than the sketch's documented rank
   error, or if the sketch outgrows its node bound. *)
let stream_fct_benchmark () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let quick = Sys.getenv_opt "CLOVE_BENCH_QUICK" <> None in
  let jobs = 10 * if quick then 20 else 60 in
  let load = 0.6 in
  let seed = 1 in
  let run_mode ~stream =
    let params =
      {
        Scenario.default_params with
        Scenario.asymmetric = true;
        failure_recovery = true;
        seed;
      }
    in
    let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
    let servers = Scenario.servers scn in
    let conns =
      Array.mapi
        (fun i client ->
          Scenario.connect scn ~src:client ~dst:servers.(i mod Array.length servers))
        (Scenario.clients scn)
    in
    let cfg =
      {
        Workload.Websearch.load;
        bisection_bps = Scenario.bisection_bps scn;
        jobs_per_conn = jobs;
        size_dist = Scenario.size_dist scn;
        start_at = Scenario.warmup scn;
      }
    in
    let sched = Scenario.sched scn in
    (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
    let t0 = Unix.gettimeofday () in
    let fct =
      Workload.Websearch.run ~stream ~sched ~rng:(Scenario.rng scn) ~conns cfg
    in
    (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
    let wall = Unix.gettimeofday () -. t0 in
    (* settle the heap so live_words measures what the sink retains *)
    Gc.full_major ();
    let st = Gc.stat () in
    Scenario.quiesce scn;
    (fct, wall, st.Gc.live_words, st.Gc.top_heap_words)
  in
  Format.printf
    "== streaming FCT (websearch/clove-ecn, load %.1f, %d jobs/conn = 10x) ==@."
    load jobs;
  let s_fct, s_wall, s_live, s_top = run_mode ~stream:true in
  let e_fct, e_wall, e_live, e_top = run_mode ~stream:false in
  let flows = Workload.Fct_stats.count e_fct in
  if Workload.Fct_stats.count s_fct <> flows then begin
    Format.eprintf "stream-fct benchmark: sinks saw different flow counts@.";
    exit 1
  end;
  (* exact FCTs in the sketch's nanosecond domain, sorted *)
  let exact_ns =
    let samples =
      Stats.Summary.samples (Workload.Fct_stats.summary e_fct)
    in
    Array.map (fun s -> int_of_float (s *. 1e9)) samples
  in
  let true_rank v =
    (* samples <= v, by binary search over the sorted array *)
    let lo = ref 0 and hi = ref (Array.length exact_ns) in
    while !lo < !hi do
      let m = (!lo + !hi) / 2 in
      if exact_ns.(m) <= v then lo := m + 1 else hi := m
    done;
    !lo
  in
  let eps = Workload.Fct_stats.stream_rank_error s_fct in
  let rank_slack = (eps *. float_of_int flows) +. 1.0 in
  let check_quantile p =
    let streamed = Workload.Fct_stats.percentile s_fct p in
    let exact = Workload.Fct_stats.percentile e_fct p in
    let v_ns = int_of_float (streamed *. 1e9) in
    let target = p /. 100.0 *. float_of_int flows in
    let err = abs_float (float_of_int (true_rank v_ns) -. target) in
    let ok = err <= rank_slack in
    Format.printf
      "  p%-4g streamed %.4fs  exact %.4fs  rank error %.0f (allowed %.0f)  \
       %s@."
      p streamed exact err rank_slack
      (if ok then "ok" else "FAIL");
    (ok, streamed, exact, err)
  in
  let ok50, s50, e50, err50 = check_quantile 50.0 in
  let ok99, s99, e99, err99 = check_quantile 99.0 in
  let nodes = Workload.Fct_stats.stream_sketch_nodes s_fct in
  let node_bound = (3 * 4096) + 1 in
  let nodes_ok = nodes <= node_bound in
  let record =
    Analysis.Json_out.Obj
      [
        ("scenario", String "stream-fct");
        ("scheme", String "clove-ecn");
        ("load", Float load);
        ("jobs_per_conn", Int jobs);
        ("seed", Int seed);
        ("flows", Int flows);
        ( "streaming",
          Analysis.Json_out.Obj
            [
              ("wall_time_sec", Float s_wall);
              ("live_words_after", Int s_live);
              ("max_heap_words", Int s_top);
              ("sketch_nodes", Int nodes);
              ("sketch_node_bound", Int node_bound);
              ("rank_error_bound", Float eps);
              ("p50_sec", Float s50);
              ("p99_sec", Float s99);
            ] );
        ( "exact",
          Analysis.Json_out.Obj
            [
              ("wall_time_sec", Float e_wall);
              ("live_words_after", Int e_live);
              ("max_heap_words", Int e_top);
              ("p50_sec", Float e50);
              ("p99_sec", Float e99);
            ] );
        ("p50_rank_error", Float err50);
        ("p99_rank_error", Float err99);
        ("rank_errors_within_bound", Bool (ok50 && ok99));
      ]
  in
  let path = Filename.concat "results" "BENCH_streamfct.json" in
  Analysis.Json_out.to_file path record;
  Format.printf
    "  heap live words: streaming %d  exact %d  sketch nodes %d/%d  -> %s@.@."
    s_live e_live nodes node_bound path;
  if not (ok50 && ok99) then begin
    Format.eprintf
      "stream-fct benchmark: streamed quantile outside the guaranteed rank \
       error@.";
    exit 1
  end;
  if not nodes_ok then begin
    Format.eprintf "stream-fct benchmark: sketch outgrew its node bound@.";
    exit 1
  end

(* ------------- part 7: PDES shard-scaling benchmark ---------------- *)

type pdes_run = {
  pd_width : int;
  pd_wall : float;
  pd_events : int;
  pd_windows : int;
  pd_stalls : int;
  pd_boundary : int;
  pd_window_ns : int;
  pd_digest : string;
}

(* A 32-leaf websearch scenario driven at PDES widths 1, 2 and 4,
   recording the scaling curve (events/s, barrier windows, stalls,
   boundary exchanges) as results/BENCH_pdes.json and cross-checking
   that every width produces byte-identical FCT records — the
   determinism contract the sharded engine is built on.  host_cores
   lands in the record so single-core CI numbers (where the domain pool
   timeshares one CPU and the barrier overhead is all cost, no
   parallelism) are read for what they are. *)
let pdes_benchmark () =
  (try Unix.mkdir "results" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let jobs =
    match Sys.getenv_opt "CLOVE_BENCH_QUICK" with Some _ -> 6 | None -> 20
  in
  let load = 0.5 in
  let params =
    {
      Scenario.default_params with
      Scenario.leaves = 32;
      hosts_per_leaf = 2;
      seed = 1;
    }
  in
  let run width =
    let scn = Scenario.build ~shards:width ~scheme:Scenario.S_clove_ecn params in
    let servers = Scenario.servers scn in
    let conns =
      Array.mapi
        (fun i client ->
          Scenario.connect scn ~src:client ~dst:servers.(i mod Array.length servers))
        (Scenario.clients scn)
    in
    let cfg =
      {
        Workload.Websearch.load;
        bisection_bps = Scenario.bisection_bps scn;
        jobs_per_conn = jobs;
        size_dist = Scenario.size_dist scn;
        start_at = Scenario.warmup scn;
      }
    in
    (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
    let t0 = Unix.gettimeofday () in
    let fct = Scenario.run_websearch scn ~rng:(Scenario.rng scn) ~conns cfg in
    (* wall-clock throughput of the harness itself — lint: allow sema-wall-clock *)
    let wall = Unix.gettimeofday () -. t0 in
    let events, windows, stalls, boundary, window_ns =
      match Scenario.shard scn with
      | Some sh ->
        ( Shard.events_fired sh,
          Shard.windows sh,
          Shard.stalls sh,
          Shard.boundary_events sh,
          Shard.window_ns sh )
      | None -> (Scheduler.events_fired (Scenario.sched scn), 0, 0, 0, 0)
    in
    let digest =
      Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct))
    in
    let r =
      {
        pd_width = Scenario.shards scn;
        pd_wall = wall;
        pd_events = events;
        pd_windows = windows;
        pd_stalls = stalls;
        pd_boundary = boundary;
        pd_window_ns = window_ns;
        pd_digest = digest;
      }
    in
    Scenario.quiesce scn;
    r
  in
  Format.printf
    "== PDES shard scaling (websearch/clove-ecn, %d leaves, load %.1f, %d \
     jobs/conn) ==@."
    params.Scenario.leaves load jobs;
  let runs = List.map run [ 1; 2; 4 ] in
  let serial = List.hd runs in
  let eps r = if r.pd_wall > 0.0 then float_of_int r.pd_events /. r.pd_wall else nan in
  let identical =
    List.for_all (fun r -> String.equal r.pd_digest serial.pd_digest) runs
  in
  let host_cores = Domain_pool.host_cores () in
  let run_json r =
    Analysis.Json_out.Obj
      [
        ("shards", Int r.pd_width);
        ("wall_time_sec", Float r.pd_wall);
        ("events_fired", Int r.pd_events);
        ("events_per_sec", Float (eps r));
        ( "speedup_vs_serial",
          Float (if r.pd_wall > 0.0 then serial.pd_wall /. r.pd_wall else nan) );
        ("windows", Int r.pd_windows);
        ("barrier_stalls", Int r.pd_stalls);
        ("boundary_events", Int r.pd_boundary);
        ("window_ns", Int r.pd_window_ns);
        ("fct_digest", String r.pd_digest);
      ]
  in
  let record =
    Analysis.Json_out.Obj
      [
        ("scenario", String "pdes-scaling");
        ("scheme", String "clove-ecn");
        ("leaves", Int params.Scenario.leaves);
        ("hosts_per_leaf", Int params.Scenario.hosts_per_leaf);
        ("load", Float load);
        ("jobs_per_conn", Int jobs);
        ("seed", Int params.Scenario.seed);
        ("host_cores", Int host_cores);
        ("deterministic", Bool identical);
        ("widths", List (List.map run_json runs));
      ]
  in
  let path = Filename.concat "results" "BENCH_pdes.json" in
  Analysis.Json_out.to_file path record;
  List.iter
    (fun r ->
      Format.printf
        "  shards %d  %8.2fs wall  %9.0f events/s  %6d windows  %6d stalls  \
         %8d boundary  %s@."
        r.pd_width r.pd_wall (eps r) r.pd_windows r.pd_stalls r.pd_boundary
        r.pd_digest)
    runs;
  Format.printf "  host cores %d  deterministic %b  -> %s@.@." host_cores
    identical path;
  if not identical then begin
    Format.eprintf "PDES benchmark: shard widths diverged@.";
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* consume `--domains N` (overrides CLOVE_DOMAINS) before anything else *)
  let rec strip_domains = function
    | "--domains" :: n :: rest -> (
      match int_of_string_opt n with
      | Some d ->
        Domain_pool.set_default_domains d;
        strip_domains rest
      | None -> failwith "bench: --domains expects an integer")
    | [ "--domains" ] -> failwith "bench: --domains expects an integer"
    | a :: rest -> a :: strip_domains rest
    | [] -> []
  in
  let args = strip_domains args in
  let flags =
    [
      "--scenarios-only";
      "--figures-only";
      "--hotpath";
      "--stream-fct";
      "--pdes";
      "--chaos3";
    ]
  in
  let figure_ids = List.filter (fun a -> not (List.mem a flags)) args in
  Format.printf "Clove reproduction benchmark harness@.";
  Format.printf
    "(CLOVE_BENCH_QUICK=1 for smoke, CLOVE_BENCH_FULL=1 for high fidelity; \
     CLOVE_DOMAINS / --domains N set the sweep pool width)@.@.";
  if List.mem "--hotpath" args then hotpath_benchmark ()
  else if List.mem "--stream-fct" args then stream_fct_benchmark ()
  else if List.mem "--pdes" args then pdes_benchmark ()
  else if List.mem "--chaos3" args then chaos3_benchmark ()
  else if List.mem "--scenarios-only" args then begin
    scenario_benchmarks ();
    parallel_sweep_benchmark ();
    chaos_benchmark ()
  end
  else if List.mem "--figures-only" args then run_figures figure_ids
  else begin
    scenario_benchmarks ();
    parallel_sweep_benchmark ();
    chaos_benchmark ();
    run_figures figure_ids
  end
