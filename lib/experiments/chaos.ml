(* The ext-chaos experiment family: run a deterministic fault plan against
   each scheme and distill a per-scheme resilience scorecard. *)

type opts = {
  plan : Faults.Fault_plan.t;
  schemes : Scenario.scheme list;
  load : float;
  jobs_per_conn : int;
  params : Scenario.params;
  mode : Run_mode.t;
}

let link_down_spec = "down s2-l2b@60ms; up s2-l2b@120ms"

let vedge_spec =
  "feedback-loss p=0.5 until=45ms @30ms; probe-loss p=0.99 until=65ms @30ms; \
   switch-down s2 @40ms; switch-up s2 @55ms"

(* ------------------------ gray-failure presets --------------------- *)

let preset_names = [ "core-brownout"; "interpod-flap"; "dual-link-loss" ]

(* Pod-level gray-failure scenarios for 3-tier topologies, expanded
   against the actual pod count.  The names follow
   {!Faults.Fault_engine.clos_naming}: core [k] homes on spine
   [k mod spines] of every pod, so ["s<p>.1-core0"] exists for each pod
   [p]. *)
let preset_spec (params : Scenario.params) name =
  let pods = params.Scenario.pods in
  if pods < 2 then
    Error
      (Printf.sprintf
         "chaos preset %S needs a 3-tier topology (--pods >= 2)" name)
  else
    match name with
    | "core-brownout" ->
      (* the flagship: core0 browns out on every pod-facing uplink — 10%
         residual capacity, 5% wire loss — and stays gray for the rest of
         the run.  Routing never reconverges (the links stay up), so ECMP
         keeps hashing flows onto the gray core forever; recovering means
         adapting to the degraded fabric, which only congestion-aware
         schemes can do. *)
      Ok
        (String.concat "; "
           (List.init pods (fun p ->
                Printf.sprintf "brownout s%d.1-core0 frac=0.1 loss=0.05 @60ms"
                  (p + 1))))
    | "interpod-flap" ->
      (* pod 1's first core uplink flaps: repeated reconvergence churn on
         the inter-pod paths *)
      Ok "flap s1.1-core0 period=20ms duty=0.5 until=120ms @60ms"
    | "dual-link-loss" ->
      (* correlated failure: pod 1 loses one core uplink on each of two
         spines at the same instant, then both restore together *)
      Ok
        "down s1.1-core0 @60ms; down s1.2-core1 @60ms; up s1.1-core0 \
         @120ms; up s1.2-core1 @120ms"
    | n -> Error (Printf.sprintf "unknown chaos preset %S" n)

let default_opts =
  {
    plan =
      Result.get_ok
        (Faults.Fault_plan.parse
           "flap s2-l2b period=20ms duty=0.5 until=120ms @60ms");
    schemes = [ Scenario.S_clove_ecn; Scenario.S_ecmp ];
    (* load 0.25 keeps the fault-free fabric clearly stable for every
       scheme (at 0.4, ECMP's own hash-collision backlog is as costly as
       a fault, blurring the before/after comparison); 750 jobs per
       connection carries the run well past the restoration *)
    load = 0.25;
    jobs_per_conn = 750;
    params =
      {
        Scenario.default_params with
        (* frequent probing so rediscovery lands within the run, exactly
           like the ext-failure timeline experiment *)
        Scenario.probe_interval = Some (Sim_time.ms 20);
        failure_recovery = true;
      };
    mode = Run_mode.default;
  }

let recovery_slack = 1.10 (* "within 10% of the fault-free baseline" *)
let ttr_bucket_sec = 10e-3
let min_tail_flows = 30

let arm_faults scn plan =
  let fabric = Scenario.fabric scn in
  let engine =
    Faults.Fault_engine.create ~sched:(Scenario.sched scn) ~fabric
      ~vswitches:(Array.map (Scenario.vswitch scn) (Fabric.hosts fabric))
      ~naming:(Scenario.fault_naming scn)
      ~rng:(Rng.split_named (Scenario.rng scn) "faults")
  in
  match Faults.Fault_engine.arm engine plan with
  | Ok () -> engine
  | Error e -> invalid_arg ("Chaos.arm_faults: " ^ e)

(* One seeded scenario run; [plan = []] is the fault-free baseline.  The
   baseline is byte-identical to the faulted run up to the first fault
   event (same seed, and Rng.split_named derives the engine's streams
   without advancing the parent), so it is an exact control: windowed
   comparisons isolate the fault's cost from workload-sampling noise and
   secular backlog drift. *)
let simulate ~mode params ~load ~jobs_per_conn scheme plan =
  let scn = Scenario.build ~mode ~scheme params in
  let servers = Scenario.servers scn in
  (* one-to-one pairing isolates the fabric fault from server-access-link
     collisions (same setup as the ext-failure timeline) *)
  let conns =
    Array.mapi
      (fun i client -> Scenario.connect scn ~src:client ~dst:servers.(i))
      (Scenario.clients scn)
  in
  let engine = arm_faults scn plan in
  let cfg =
    {
      Workload.Websearch.load;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let fct = Scenario.run_websearch scn ~rng:(Scenario.rng scn) ~conns cfg in
  Faults.Fault_engine.stop engine;
  let ledger = Scenario.ledger scn in
  Scenario.quiesce scn;
  (fct, ledger)

(* Mice slice: mice FCT tracks queueing and congestion directly, while
   whole-distribution averages are dominated by how many rare elephants
   each window happened to sample (the short pre-fault window sees almost
   none).  The cutoff scales with the scenario's flow sizes. *)
let mice_of params fct =
  Workload.Fct_stats.filter_size
    ~max_size:(Scenario.scaled_cutoff params Workload.Fct_stats.mice_cutoff)
    fct

(* [t_settle]: when the disruption stops changing — the plan's latest
   restoration, else the last fault event of a permanent plan.
   Recovery is judged from there: for a restored link it means "back to
   normal service", for a permanent failure it means "adapted to the
   degraded fabric" (which congestion-aware schemes can do and ECMP
   cannot). *)
let windows_of plan =
  match Faults.Fault_plan.disruption_window plan with
  | None -> (infinity, infinity)
  | Some (start, settle) ->
    (Sim_time.span_to_sec start, Sim_time.span_to_sec settle)

type score = {
  sc_pre_avg : float;  (* avg mice FCT (s), flows arriving before the fault *)
  sc_fault_avg : float;  (* avg mice FCT (s), flows arriving in the window *)
  sc_post_avg : float;  (* avg mice FCT (s), flows arriving after restore *)
  sc_post_base_avg : float;  (* same post window in the fault-free baseline *)
  sc_post_p99 : float;
  sc_goodput_lost : float;  (* bytes the fault window failed to deliver *)
  sc_ttr : float option;
      (* seconds after the disruption settles until the scheme's mice FCT
         is sustainably (to end of run) within 10% of the fault-free
         baseline; [None] = never within this run *)
}

type row = {
  r_scheme : Scenario.scheme;
  r_score : score;
  r_fct : Workload.Fct_stats.t;
  r_base : Workload.Fct_stats.t;  (* the paired fault-free baseline *)
  r_ledger : Ledger.t;  (* both runs' *)
}

(* Score one (sub-)plan's disruption window against a faulted run and
   its paired fault-free baseline — also how the per-tier breakdown
   scores each tier's own window within one run. *)
let score ~params ~plan ~fct ~base =
  let t_fault, t_settle = windows_of plan in
  let mice = mice_of params fct in
  let mice_base = mice_of params base in
  let pre = Workload.Fct_stats.window ~from:0.0 ~until:t_fault mice in
  let during = Workload.Fct_stats.window ~from:t_fault ~until:t_settle mice in
  let post = Workload.Fct_stats.window ~from:t_settle ~until:infinity mice in
  let post_base =
    Workload.Fct_stats.window ~from:t_settle ~until:infinity mice_base
  in
  (* goodput lost: bytes the fault window delivered below what the same
     window delivered fault-free.  Zero for single-event permanent plans
     (their fault window is empty — all their cost shows up in postFCT). *)
  let goodput_lost =
    if Float.is_finite t_fault && Float.is_finite t_settle then
      let delivered w =
        Workload.Fct_stats.completed_bytes_in ~from:t_fault ~until:t_settle w
      in
      float_of_int (Int.max 0 (delivered base - delivered fct))
    else 0.0
  in
  (* Sustained recovery: the earliest post-settle instant from which the
     ENTIRE remaining run averages within 10% of the fault-free baseline
     over the same arrivals.  Suffix averages (rather than single
     buckets) make one lucky bucket insufficient — the recovery has to
     hold to the end of the run; [min_tail_flows] keeps the last few
     stragglers from deciding the verdict. *)
  let time_to_recover =
    if not (Float.is_finite t_settle) then None
    else
      let rec search i =
        if i > 1000 then None
        else
          let b = t_settle +. (float_of_int i *. ttr_bucket_sec) in
          let f = Workload.Fct_stats.window ~from:b ~until:infinity mice in
          let bl =
            Workload.Fct_stats.window ~from:b ~until:infinity mice_base
          in
          if
            Workload.Fct_stats.count f < min_tail_flows
            || Workload.Fct_stats.count bl < min_tail_flows
          then None
          else if
            Workload.Fct_stats.avg f
            <= recovery_slack *. Workload.Fct_stats.avg bl
          then Some (float_of_int i *. ttr_bucket_sec)
          else search (i + 1)
      in
      search 0
  in
  {
    sc_pre_avg = Workload.Fct_stats.avg pre;
    sc_fault_avg = Workload.Fct_stats.avg during;
    sc_post_avg = Workload.Fct_stats.avg post;
    sc_post_base_avg = Workload.Fct_stats.avg post_base;
    sc_post_p99 = Workload.Fct_stats.percentile post 99.0;
    sc_goodput_lost = goodput_lost;
    sc_ttr = time_to_recover;
  }

let run_scheme opts scheme =
  let simulate =
    simulate ~mode:opts.mode opts.params ~load:opts.load
      ~jobs_per_conn:opts.jobs_per_conn scheme
  in
  let fct, ledger = simulate opts.plan in
  let base, base_ledger = simulate [] in
  {
    r_scheme = scheme;
    r_score = score ~params:opts.params ~plan:opts.plan ~fct ~base;
    r_fct = fct;
    r_base = base;
    r_ledger = Ledger.merge ledger base_ledger;
  }

let run opts =
  (* one fully private scenario per scheme: embarrassingly parallel, and
     results return by scheme index so the scorecard (and its digests)
     are identical at any domain count *)
  Domain_pool.run ~domains:(Sweep.fan_width opts.mode) (run_scheme opts)
    (Array.of_list opts.schemes)

let ms v = if Float.is_nan v then nan else 1e3 *. v

let scorecard ~plan rows =
  let table =
    Stats.Table.create
      ~header:
        [
          "scheme";
          "preFCT(ms)";
          "faultFCT(ms)";
          "postFCT(ms)";
          "basePost(ms)";
          "postP99(ms)";
          "lost(MB)";
          "ttr(ms)";
          "recovered";
        ]
  in
  Array.iter
    (fun { r_scheme; r_score = s; _ } ->
      Stats.Table.add_float_row table
        ~label:(Scenario.scheme_name r_scheme)
        [
          ms s.sc_pre_avg;
          ms s.sc_fault_avg;
          ms s.sc_post_avg;
          ms s.sc_post_base_avg;
          ms s.sc_post_p99;
          s.sc_goodput_lost /. 1e6;
          (match s.sc_ttr with None -> nan | Some t -> ms t);
          (if s.sc_ttr <> None then 1.0 else 0.0);
        ])
    rows;
  {
    Figures.id = "ext-chaos";
    title =
      Printf.sprintf "Chaos scorecard, mice FCT [%s] (extension)"
        (Faults.Fault_plan.to_string plan);
    paper_claim =
      "Section 3.1: \"probes are sent periodically to adapt to changes and \
       failures\" — with failure-recovery hardening, Clove-ECN should \
       return to within 10% of its fault-free baseline FCT after \
       restoration while ECMP keeps paying for the backlog built during \
       the fault";
    table;
  }

(* --------------------- per-tier breakdown ------------------------- *)

(* Split the plan by the tier each event disturbs and score every tier's
   own disruption window against the same run — no extra simulation.
   Per-tier time-to-recover tells which layer's damage lingers: a core
   brownout with instant pod-tier recovery but long core-tier TTR is a
   scheme failing to reroute around the gray core. *)
let tier_scorecard ~plan ~(params : Scenario.params) rows =
  let topology = Scenario.build_topology params in
  let tier_of =
    Faults.Fault_engine.tier_of_event
      (Faults.Fault_engine.clos_naming topology)
      topology.Topology.topo
  in
  let tiers = List.sort_uniq String.compare (List.map tier_of plan) in
  let table =
    Stats.Table.create
      ~header:
        [
          "scheme/tier";
          "faultFCT(ms)";
          "postFCT(ms)";
          "basePost(ms)";
          "lost(MB)";
          "ttr(ms)";
          "recovered";
        ]
  in
  Array.iter
    (fun r ->
      List.iter
        (fun tier ->
          let sub = List.filter (fun ev -> tier_of ev = tier) plan in
          let s = score ~params ~plan:sub ~fct:r.r_fct ~base:r.r_base in
          Stats.Table.add_float_row table
            ~label:(Scenario.scheme_name r.r_scheme ^ ":" ^ tier)
            [
              ms s.sc_fault_avg;
              ms s.sc_post_avg;
              ms s.sc_post_base_avg;
              s.sc_goodput_lost /. 1e6;
              (match s.sc_ttr with None -> nan | Some t -> ms t);
              (if s.sc_ttr <> None then 1.0 else 0.0);
            ])
        tiers)
    rows;
  {
    Figures.id = "ext-chaos-tiers";
    title =
      Printf.sprintf "Chaos per-tier breakdown, mice FCT [%s] (extension)"
        (Faults.Fault_plan.to_string plan);
    paper_claim =
      "3-tier generalization: each tier's own disruption window scored \
       separately — time-to-recover and goodput lost per tier show which \
       layer's gray failure a scheme absorbs and which it keeps paying for";
    table;
  }

let pp_rows opts fmt rows =
  let plan = opts.plan in
  Format.fprintf fmt "%a@." Figures.pp_report (scorecard ~plan rows);
  Format.fprintf fmt "%a@." Figures.pp_report
    (tier_scorecard ~plan ~params:opts.params rows);
  Array.iter
    (fun r ->
      Format.fprintf fmt "digest %-14s %s@."
        (Scenario.scheme_name r.r_scheme)
        (Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump r.r_fct))))
    rows

let pp_ledgers fmt rows =
  Array.iter
    (fun r -> Ledger.pp ~label:(Scenario.scheme_name r.r_scheme) fmt r.r_ledger)
    rows

let report opts = scorecard ~plan:opts.plan (run opts)
