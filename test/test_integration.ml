(* Integration tests: full scenarios exercising the public API end to end,
   checking the paper's qualitative claims at small scale and cross-module
   invariants (byte conservation, no stalls, determinism). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

open Experiments

let small_run ?(asymmetric = false) ?(seed = 1) ?(load = 0.5) ?(jobs = 30) scheme =
  let params = { Scenario.default_params with Scenario.asymmetric; seed } in
  Sweep.websearch_run ~mode:Run_mode.default ~scheme ~params ~load ~jobs_per_conn:jobs

(* ------------------------------ determinism ----------------------- *)

let test_runs_are_deterministic () =
  let a = small_run ~seed:7 Scenario.S_clove_ecn in
  let b = small_run ~seed:7 Scenario.S_clove_ecn in
  Alcotest.(check (float 1e-12))
    "same seed, same avg FCT" (Workload.Fct_stats.avg a) (Workload.Fct_stats.avg b);
  Alcotest.(check (float 1e-12))
    "same p99" (Workload.Fct_stats.percentile a 99.0) (Workload.Fct_stats.percentile b 99.0)

let test_seeds_differ () =
  let a = small_run ~seed:7 Scenario.S_clove_ecn in
  let b = small_run ~seed:8 Scenario.S_clove_ecn in
  check_bool "different seeds differ" true
    (Workload.Fct_stats.avg a <> Workload.Fct_stats.avg b)

(* ---------------------------- golden digests ----------------------- *)

(* Pinned [canonical_dump] MD5s of small runs: every scheme on the
   asymmetric testbed with failure recovery on, CAFT on a 3-tier fabric,
   and the four Section 7 variants.  Together they reach every default
   the simulator runs with (timers, weights, TCP and MPTCP constants,
   fabric load balancers), so a changed constant moves a digest here.
   The variants run with recovery off, the paper's setting: with it on,
   the reorder run reproduces Clove-ECN's digest at this scale, and
   would pin nothing of its own. *)
let golden_digests =
  [
    ("ECMP", "0ae3149a9d2ad8bc25fe3f8afe565978");
    ("Edge-Flowlet", "587521c93693815a5d2b9f57bed40b7e");
    ("Clove-ECN", "2d9d05a1bde6eb7b865f0552c0da12ef");
    ("Clove-INT", "1c82c8ef191367cc462dfbf45b27fa84");
    ("Clove-Latency", "920b7ca79fa0b6dbf6b17ab216c784aa");
    ("Presto", "6988a7247ea1d177b18f8dac4f5ba6ad");
    ("MPTCP", "aab430aed7e5957519a8805bc722f009");
    ("CONGA", "b24e108b29aadf7c25c2cbf04abf0dea");
    ("LetFlow", "bfae8d23d5cd2247287869f4598df029");
    ("CAFT", "37243f2bc1a77f391c07b8c3c4d2a94d");
    ("CAFT pods=2", "69a6cabb6de0faa057b19e4b2f381857");
    ("Clove-ECN rewrite", "cb642b039b3cd4be9e2434572f890e7e");
    ("Clove-ECN reorder", "95941ad9a13064572cddc4ca818d28b8");
    ("Clove-Latency adaptive gap", "9bd249000c520fec7636f11f8606f346");
    ("Clove-ECN DCTCP guests", "6a3433b035982258cf4af57dd55398b3");
  ]

let test_golden_digests () =
  let asym =
    {
      Scenario.default_params with
      Scenario.asymmetric = true;
      failure_recovery = true;
      seed = 1;
    }
  in
  let paper = { asym with Scenario.failure_recovery = false } in
  let runs =
    List.map
      (fun scheme -> (Scenario.scheme_name scheme, scheme, asym))
      Scenario.
        [
          S_ecmp;
          S_edge_flowlet;
          S_clove_ecn;
          S_clove_int;
          S_clove_latency;
          S_presto;
          S_mptcp;
          S_conga;
          S_letflow;
          S_caft;
        ]
    @ [
        ( "CAFT pods=2",
          Scenario.S_caft,
          { asym with Scenario.pods = 2; asymmetric = false } );
        ("Clove-ECN rewrite", Scenario.S_clove_ecn, { paper with rewrite_mode = true });
        ("Clove-ECN reorder", Scenario.S_clove_ecn, { paper with clove_reorder = true });
        ( "Clove-Latency adaptive gap",
          Scenario.S_clove_latency,
          { paper with adaptive_gap = true } );
        ("Clove-ECN DCTCP guests", Scenario.S_clove_ecn, { paper with guest_dctcp = true });
      ]
  in
  let digest (label, scheme, params) =
    let fct = Sweep.websearch_run ~mode:Run_mode.default ~scheme ~params ~load:0.5 ~jobs_per_conn:8 in
    (label, Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct)))
  in
  Alcotest.(check (list (pair string string)))
    "FCT digests" golden_digests (List.map digest runs)

(* [clove-sim chaos --jobs 150]'s digests: a link down for 60-120 ms
   while packets are crossing it, so they pin the rule that decides
   which of those packets are lost (the link's state at the wire
   delivery instant), which the fault-free runs above never reach *)
let chaos_digests =
  [ ("Clove-ECN", "9482cf6255aefb3fee71883e8f45b365"); ("ECMP", "2e1ccadc2204144741ca13eb8b8e271d") ]

(* the Clove-ECN and ECMP FCT digests of a [Chaos.simulate] run at load
   0.25 and 150 jobs per connection under the fault plan [spec] *)
let chaos_run_digests spec =
  let params = Chaos.default_opts.Chaos.params in
  let plan =
    Result.get_ok (Faults.Fault_plan.parse ~names:(Scenario.fault_names params) spec)
  in
  let digest scheme =
    let fct, _ =
      Chaos.simulate ~mode:Run_mode.default params ~load:0.25 ~jobs_per_conn:150 scheme plan
    in
    ( Scenario.scheme_name scheme,
      Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct)) )
  in
  List.map digest [ Scenario.S_clove_ecn; Scenario.S_ecmp ]

let test_chaos_digests () =
  Alcotest.(check (list (pair string string)))
    "chaos FCT digests" chaos_digests (chaos_run_digests Chaos.link_down_spec)

(* [clove-sim chaos --faults "<brownout_spec>" --jobs 150]'s digests: a
   brownout halves a core link's rate while its queue holds frames,
   re-timing the queued tail, loses 1% on the wire, then clears *)
let brownout_spec = "brownout s2-l2b frac=0.5 loss=0.01 until=100ms @40ms"

let brownout_digests =
  [ ("Clove-ECN", "ce40e561e6ac4373d064311cb7c67a08"); ("ECMP", "21739133f6ba97822d8374c5d1c748ae") ]

let test_brownout_digests () =
  Alcotest.(check (list (pair string string)))
    "brownout FCT digests" brownout_digests (chaos_run_digests brownout_spec)

(* a fabric fault restored within the run, which ends at about 72 ms:
   the link fails with frames queued and on the wire, comes back, then
   browns out and clears.  Both ends show: without the [up], Clove-ECN's
   digest is 1281a18d..., without the brownout's [until] 78715881... *)
let restore_spec =
  "down s2-l2b@20ms; up s2-l2b@35ms; brownout s2-l2b frac=0.5 loss=0.01 until=60ms @45ms"

let restore_digests =
  [ ("Clove-ECN", "0633aa2d5655dd13ce2271158bd6c604"); ("ECMP", "59a40bb9280270bd50dd48a75b85b515") ]

let test_restore_digests () =
  Alcotest.(check (list (pair string string)))
    "restore FCT digests" restore_digests (chaos_run_digests restore_spec)

(* [Chaos.vedge_spec]'s digests: feedback and probe loss on every
   vswitch, ending at different instants, while a spine is down and back
   up; only Clove-ECN reads feedback and probes, so ECMP's digest moves
   with the switch alone *)
let vedge_digests =
  [ ("Clove-ECN", "6f09f1e548ea5860f86ecfe33283e265"); ("ECMP", "26934657c55ad6d66b84e33b9b8a494a") ]

let test_vedge_digests () =
  Alcotest.(check (list (pair string string)))
    "vedge FCT digests" vedge_digests (chaos_run_digests Chaos.vedge_spec)

(* -------------------------- byte conservation --------------------- *)

let test_byte_conservation () =
  (* every job's bytes are delivered exactly once to the receiver stream:
     sum of receiver-delivered bytes equals sum of job sizes *)
  let params = { Scenario.default_params with Scenario.seed = 3 } in
  let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let submit = Scenario.connect scn ~src:client ~dst:server in
  let sizes = [ 5_000; 123_456; 999; 70_000 ] in
  let total = List.fold_left ( + ) 0 sizes in
  let done_count = ref 0 in
  Scheduler.schedule sched ~after:(Sim_time.ms 25) (fun () ->
      List.iter (fun b -> submit ~bytes:b ~on_complete:(fun () -> incr done_count)) sizes);
  Scheduler.run ~until:(Sim_time.of_ns 300_000_000) sched;
  check_int "all jobs done" (List.length sizes) !done_count;
  (* receiver-side delivered bytes: find via the stack's registered
     receiver being opaque, we rely on sender-side: all bytes acked *)
  let senders = Transport.Stack.senders (Scenario.stack scn client) in
  let acked = List.fold_left (fun acc s -> acc + Transport.Tcp.snd_una s) 0 senders in
  check_int "every byte acked exactly once" total acked;
  Scenario.quiesce scn

(* --------------------- paper claims at small scale ---------------- *)

(* directional claims are checked on the mean over a few seeds, as in the
   paper's methodology: a single realization at this scale can land in a
   regime where the degraded link is barely exercised *)
let claim_seeds = [ 1; 2; 3 ]

let seed_mean f =
  List.fold_left (fun acc seed -> acc +. f seed) 0.0 claim_seeds
  /. float_of_int (List.length claim_seeds)

let test_clove_beats_ecmp_under_asymmetry () =
  (* the headline: congestion-aware edge LB clearly beats ECMP when a
     fabric link is down and load is high *)
  let avg scheme =
    seed_mean (fun seed ->
        Workload.Fct_stats.avg (small_run ~asymmetric:true ~seed ~load:0.7 ~jobs:120 scheme))
  in
  let ecmp = avg Scenario.S_ecmp in
  let clove = avg Scenario.S_clove_ecn in
  check_bool
    (Printf.sprintf "clove (%.4fs) < ecmp (%.4fs)" clove ecmp)
    true (clove < ecmp)

let test_edge_flowlet_between_ecmp_and_clove () =
  let avg scheme =
    seed_mean (fun seed ->
        Workload.Fct_stats.avg (small_run ~asymmetric:true ~seed ~load:0.7 ~jobs:120 scheme))
  in
  let ecmp = avg Scenario.S_ecmp in
  let ef = avg Scenario.S_edge_flowlet in
  check_bool
    (Printf.sprintf "edge-flowlet (%.4fs) improves on ecmp (%.4fs)" ef ecmp)
    true (ef < ecmp)

let test_low_load_schemes_close () =
  (* at 20% load all schemes should be within a small factor of each other
     (paper: "at lower loads, the performance ... is nearly the same") *)
  let avg scheme = Workload.Fct_stats.avg (small_run ~load:0.2 ~jobs:60 scheme) in
  let values =
    List.map avg Scenario.[ S_ecmp; S_edge_flowlet; S_clove_ecn; S_presto ]
  in
  let lo = List.fold_left Float.min infinity values in
  let hi = List.fold_left Float.max 0.0 values in
  check_bool
    (Printf.sprintf "spread %.4f..%.4f within 3x" lo hi)
    true (hi /. lo < 3.0)

let test_incast_mptcp_collapses () =
  (* Fig. 7's shape: at high fan-in MPTCP's goodput collapses relative to
     Clove-ECN *)
  let params =
    { Scenario.default_params with Scenario.hosts_per_leaf = 16; fabric_rate_bps = 40e9 }
  in
  let goodput scheme =
    Sweep.incast_point ~mode:Run_mode.default ~scheme ~params ~fanout:12
      ~total_bytes:(int_of_float (1e7 *. params.Scenario.size_scale))
      ~requests:6 ~seeds:[ 1 ]
  in
  let clove = goodput Scenario.S_clove_ecn in
  let mptcp = goodput Scenario.S_mptcp in
  check_bool
    (Printf.sprintf "clove %.2fG > mptcp %.2fG at fanout 12" (clove /. 1e9) (mptcp /. 1e9))
    true (clove > mptcp)

let test_no_stalls_at_high_load () =
  (* the full matrix at 80% load, asymmetric: every scheme must finish all
     jobs (no deadlock/black hole), exercising the whole system *)
  List.iter
    (fun scheme ->
      let fct = small_run ~asymmetric:true ~load:0.8 ~jobs:25 scheme in
      check_int
        (Scenario.scheme_name scheme ^ " all jobs complete")
        (8 * 25) (Workload.Fct_stats.count fct))
    Scenario.[ S_ecmp; S_edge_flowlet; S_clove_ecn; S_clove_int; S_presto; S_mptcp; S_conga ]

let test_flowlet_gap_sensitivity_direction () =
  (* Fig. 6's qualitative claim at 70-80% load: a tiny flowlet gap
     (per-packet spraying) is worse than the recommended 1 RTT gap *)
  let avg gap_mult =
    let rtt = Scenario.default_params.Scenario.rtt_estimate in
    seed_mean (fun seed ->
        let params =
          {
            Scenario.default_params with
            Scenario.asymmetric = true;
            flowlet_gap = Some (Sim_time.mul_span rtt gap_mult);
            seed;
          }
        in
        Workload.Fct_stats.avg
          (Sweep.websearch_run ~mode:Run_mode.default ~scheme:Scenario.S_clove_ecn ~params ~load:0.8
             ~jobs_per_conn:120))
  in
  let tiny = avg 0.2 in
  let good = avg 1.0 in
  check_bool
    (Printf.sprintf "gap 0.2RTT (%.4fs) worse than 1RTT (%.4fs)" tiny good)
    true (tiny > good)

(* --------------------------- vswitch counters --------------------- *)

let test_probe_overhead_bounded () =
  (* Section 4 scalability: probe traffic is periodic and small.  After a
     run, the probes sent by one vswitch are bounded by
     cycles x ports x ttls *)
  let params = { Scenario.default_params with Scenario.seed = 2 } in
  let scn = Scenario.build ~scheme:Scenario.S_clove_ecn params in
  let client = (Scenario.clients scn).(0) in
  let server = (Scenario.servers scn).(0) in
  let v = Scenario.vswitch scn client in
  Clove.Vswitch.add_destination v (Host.addr server);
  Scheduler.run
    ~until:(Sim_time.of_ns (Sim_time.span_ns (Sim_time.ms 600)))
    (Scenario.sched scn);
  (* two cycles (t=0 and t=500ms) with <= 36 ports x 8 ttls each; only
     probes whose ttl reaches the host are answered *)
  let stats = Clove.Vswitch.stats (Scenario.vswitch scn server) in
  check_bool "server answered some probes" true (stats.Clove.Vswitch.probes_answered > 0);
  check_bool "probe volume bounded" true
    (stats.Clove.Vswitch.probes_answered <= 2 * 36 * 8);
  Scenario.quiesce scn

let () =
  Alcotest.run "integration"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed same result" `Quick test_runs_are_deterministic;
          Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
        ] );
      ( "golden",
        [
          Alcotest.test_case "pinned digests" `Quick test_golden_digests;
          Alcotest.test_case "pinned chaos digests" `Quick test_chaos_digests;
          Alcotest.test_case "pinned brownout digests" `Quick test_brownout_digests;
          Alcotest.test_case "pinned vedge digests" `Quick test_vedge_digests;
          Alcotest.test_case "pinned restore digests" `Quick test_restore_digests;
        ] );
      ( "conservation",
        [ Alcotest.test_case "bytes acked exactly once" `Quick test_byte_conservation ] );
      ( "paper-claims",
        [
          Alcotest.test_case "clove beats ecmp (asym)" `Slow test_clove_beats_ecmp_under_asymmetry;
          Alcotest.test_case "edge-flowlet beats ecmp (asym)" `Slow
            test_edge_flowlet_between_ecmp_and_clove;
          Alcotest.test_case "low load: schemes close" `Slow test_low_load_schemes_close;
          Alcotest.test_case "incast: mptcp collapses" `Slow test_incast_mptcp_collapses;
          Alcotest.test_case "no stalls at 80% (all schemes)" `Slow test_no_stalls_at_high_load;
          Alcotest.test_case "flowlet gap direction" `Slow test_flowlet_gap_sensitivity_direction;
        ] );
      ( "overhead",
        [ Alcotest.test_case "probe overhead bounded" `Quick test_probe_overhead_bounded ] );
    ]
