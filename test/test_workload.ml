(* Tests for flow-size distributions, FCT statistics and the workload
   drivers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----------------------------- Flow_size_dist --------------------- *)

let test_web_search_shape () =
  let d = Workload.Flow_size_dist.web_search in
  (* the published distribution: ~30% of flows are <= 13KB, long tail to
     20MB, mean around 1.7MB *)
  Alcotest.(check (float 0.02)) "p(<=13KB)" 0.30 (Stats.Cdf.eval d 13_000.0);
  Alcotest.(check (float 0.02)) "p(<=667KB)" 0.90 (Stats.Cdf.eval d 667_000.0);
  (* mean of the piecewise-linear interpolation of the published knots:
     a few hundred KB (the tail carries most of the bytes) *)
  let mean = Workload.Flow_size_dist.mean_bytes d in
  check_bool "mean in the hundreds of KB" true (mean > 2.0e5 && mean < 8.0e5)

let test_sampling_matches_cdf () =
  let d = Workload.Flow_size_dist.web_search in
  let rng = Rng.create 42 in
  let n = 20_000 in
  let small = ref 0 in
  for _ = 1 to n do
    if Workload.Flow_size_dist.sample d rng <= 33_000 then incr small
  done;
  (* CDF says 60% at 33KB *)
  let frac = float_of_int !small /. float_of_int n in
  check_bool "sampling matches CDF" true (abs_float (frac -. 0.60) < 0.02)

let test_scaling_preserves_shape () =
  let d = Workload.Flow_size_dist.web_search in
  let half = Workload.Flow_size_dist.scale d 0.5 in
  Alcotest.(check (float 1e-6))
    "mean halves" 0.5
    (Workload.Flow_size_dist.mean_bytes half /. Workload.Flow_size_dist.mean_bytes d);
  Alcotest.(check (float 0.01))
    "same quantile structure"
    (Stats.Cdf.eval d 33_000.0)
    (Stats.Cdf.eval half 16_500.0)

let test_data_mining_heavier_tail () =
  (* data-mining has many tiny flows but a much heavier tail *)
  let ws = Workload.Flow_size_dist.web_search in
  let dm = Workload.Flow_size_dist.data_mining in
  check_bool "more tiny flows" true (Stats.Cdf.eval dm 10_000.0 > Stats.Cdf.eval ws 10_000.0);
  check_bool "heavier tail" true
    (Workload.Flow_size_dist.mean_bytes dm > Workload.Flow_size_dist.mean_bytes ws)

(* -------------------------------- Fct_stats ----------------------- *)

let t0 = Sim_time.zero
let at_ms ms = Sim_time.add Sim_time.zero (Sim_time.ms ms)

let test_fct_filters () =
  let s = Workload.Fct_stats.create () in
  Workload.Fct_stats.record s ~size:50_000 ~start:t0 ~finish:(at_ms 10);
  Workload.Fct_stats.record s ~size:50_000_000 ~start:t0 ~finish:(at_ms 1000);
  check_int "count" 2 (Workload.Fct_stats.count s);
  Alcotest.(check (float 1e-9))
    "mice avg" 0.010
    (Workload.Fct_stats.avg ~max_size:Workload.Fct_stats.mice_cutoff s);
  Alcotest.(check (float 1e-9))
    "elephant avg" 1.0
    (Workload.Fct_stats.avg ~min_size:Workload.Fct_stats.elephant_cutoff s);
  Alcotest.(check (float 1e-9)) "overall avg" 0.505 (Workload.Fct_stats.avg s)

let test_fct_merge_and_percentile () =
  let a = Workload.Fct_stats.create () and b = Workload.Fct_stats.create () in
  for i = 1 to 50 do
    Workload.Fct_stats.record a ~size:1 ~start:t0 ~finish:(at_ms i)
  done;
  for i = 51 to 100 do
    Workload.Fct_stats.record b ~size:1 ~start:t0 ~finish:(at_ms i)
  done;
  let m = Workload.Fct_stats.merge a b in
  check_int "merged count" 100 (Workload.Fct_stats.count m);
  Alcotest.(check (float 1e-3)) "p99" 0.09901 (Workload.Fct_stats.percentile m 99.0)

(* -------------------------------- Websearch ----------------------- *)

let test_arrival_rate_math () =
  let cfg =
    {
      Workload.Websearch.load = 0.5;
      bisection_bps = 80e9;
      jobs_per_conn = 10;
      size_dist = Workload.Flow_size_dist.web_search;
      start_at = Sim_time.zero_span;
    }
  in
  let lambda = Workload.Websearch.arrival_rate_per_conn cfg ~conns:8 in
  (* 0.5 * 80G / 8 / (mean*8 bits) *)
  let mean_bits = Workload.Flow_size_dist.mean_bytes cfg.size_dist *. 8.0 in
  Alcotest.(check (float 1.0)) "lambda" (0.5 *. 80e9 /. 8.0 /. mean_bits) lambda

let test_websearch_driver_runs_all_jobs () =
  (* synthetic instant-completion transport: every job completes after a
     small constant service time *)
  let sched = Scheduler.create () in
  let rng = Rng.create 3 in
  let served = ref 0 in
  let submit ~bytes ~on_complete =
    ignore bytes;
    incr served;
    Scheduler.schedule sched ~after:(Sim_time.us 10) on_complete
  in
  let cfg =
    {
      Workload.Websearch.load = 0.5;
      bisection_bps = 80e9;
      jobs_per_conn = 25;
      size_dist = Workload.Flow_size_dist.web_search;
      start_at = Sim_time.ms 1;
    }
  in
  let fct = Workload.Websearch.run ~sched ~rng ~conns:(Array.make 4 submit) cfg in
  check_int "all jobs submitted" 100 !served;
  check_int "all jobs recorded" 100 (Workload.Fct_stats.count fct);
  check_bool "fcts include service" true (Workload.Fct_stats.avg fct >= 10e-6)

let test_websearch_queueing_included () =
  (* a transport that serializes jobs: queueing delay must appear in FCT *)
  let sched = Scheduler.create () in
  let rng = Rng.create 3 in
  let busy_until = ref Sim_time.zero in
  let submit ~bytes ~on_complete =
    ignore bytes;
    let now = Scheduler.now sched in
    let start = Sim_time.max now !busy_until in
    let finish = Sim_time.add start (Sim_time.ms 5) in
    busy_until := finish;
    Scheduler.schedule_at sched ~time:finish on_complete
  in
  let cfg =
    {
      Workload.Websearch.load = 0.9;
      bisection_bps = 80e9;
      jobs_per_conn = 20;
      size_dist = Workload.Flow_size_dist.web_search;
      start_at = Sim_time.ms 1;
    }
  in
  let fct = Workload.Websearch.run ~sched ~rng ~conns:[| submit |] cfg in
  (* 20 jobs each taking 5ms back to back: late jobs must have waited *)
  check_bool "max fct includes waiting" true
    (Workload.Fct_stats.percentile fct 100.0 > 0.02)

(* ---------------------------------- Incast ------------------------ *)

let test_incast_driver () =
  let sched = Scheduler.create () in
  let rng = Rng.create 4 in
  let calls = Array.make 8 0 in
  let submits =
    Array.init 8 (fun i ->
        fun ~bytes ~on_complete ->
          ignore bytes;
          calls.(i) <- calls.(i) + 1;
          Scheduler.schedule sched ~after:(Sim_time.us 100) on_complete)
  in
  let result =
    Workload.Incast.run ~sched ~rng ~server_submits:submits ~fanout:4
      ~total_bytes:1_000_000 ~requests:10 ~start_at:(Sim_time.ms 1)
  in
  check_int "requests done" 10 result.Workload.Incast.requests;
  check_int "total server transfers" 40 (Array.fold_left ( + ) 0 calls);
  (* goodput = bytes / elapsed: 10 requests x 1MB in ~10 x 100us *)
  check_bool "plausible goodput" true (result.Workload.Incast.goodput_bps > 1e9)

let test_incast_bad_fanout () =
  let sched = Scheduler.create () in
  let rng = Rng.create 4 in
  Alcotest.check_raises "fanout too large" (Invalid_argument "Incast.run: bad fanout")
    (fun () ->
      ignore
        (Workload.Incast.run ~sched ~rng
           ~server_submits:(Array.make 2 (fun ~bytes:_ ~on_complete:_ -> ()))
           ~fanout:5 ~total_bytes:100 ~requests:1 ~start_at:Sim_time.zero_span))

let () =
  Alcotest.run "workload"
    [
      ( "flow_size_dist",
        [
          Alcotest.test_case "web-search shape" `Quick test_web_search_shape;
          Alcotest.test_case "sampling matches cdf" `Quick test_sampling_matches_cdf;
          Alcotest.test_case "scaling preserves shape" `Quick test_scaling_preserves_shape;
          Alcotest.test_case "data-mining tail" `Quick test_data_mining_heavier_tail;
        ] );
      ( "fct_stats",
        [
          Alcotest.test_case "size filters" `Quick test_fct_filters;
          Alcotest.test_case "merge and percentile" `Quick test_fct_merge_and_percentile;
        ] );
      ( "websearch",
        [
          Alcotest.test_case "arrival rate math" `Quick test_arrival_rate_math;
          Alcotest.test_case "driver runs all jobs" `Quick test_websearch_driver_runs_all_jobs;
          Alcotest.test_case "queueing included in fct" `Quick test_websearch_queueing_included;
        ] );
      ( "incast",
        [
          Alcotest.test_case "driver" `Quick test_incast_driver;
          Alcotest.test_case "bad fanout" `Quick test_incast_bad_fanout;
        ] );
    ]
