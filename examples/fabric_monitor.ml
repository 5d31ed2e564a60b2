(* Watch what a load balancer does to the fabric: run an asymmetric
   web-search workload under ECMP and under Clove-ECN, then print every
   fabric link's end-of-run counters.

   Look at the one surviving S2-L2 link, n3->n1/0: it carries the traffic
   of two links.  ECMP hashes onto it regardless; under Clove-ECN its
   marks are the congestion feedback that moves the source vswitches'
   path weights.

   Run with: dune exec examples/fabric_monitor.exe *)

open Experiments

let fabric_links scn =
  let fabric = Scenario.fabric scn in
  let topo = Fabric.topology fabric in
  Topology.edges topo
  |> List.filter (fun (e : Topology.edge) ->
         (not (Topology.is_host topo e.Topology.a))
         && (not (Topology.is_host topo e.Topology.b))
         && not e.Topology.failed)
  |> List.concat_map (fun e ->
         let l_ab, l_ba = Fabric.links_of_edge fabric e in
         [ l_ab; l_ba ])

(* exact counters, not samples: the queue peak is the true high-water
   mark, so a link that marked packets shows a peak above the threshold *)
let pp_link ~elapsed_s fmt link =
  let q = Pkt_queue.stats (Link.queue link) in
  let util =
    float_of_int (Link.tx_bytes link) *. 8.0 /. (Link.rate_bps link *. elapsed_s)
  in
  Format.fprintf fmt "%-24s util(avg) %.2f  queue(peak) %4d  drops %5d  marks %6d@."
    (Link.label link) util q.Pkt_queue.max_occupancy q.Pkt_queue.dropped
    q.Pkt_queue.marked

let run scheme =
  let params =
    { Scenario.default_params with Scenario.asymmetric = true; seed = 3 }
  in
  let scn = Scenario.build ~scheme params in
  let sched = Scenario.sched scn in
  let rng = Scenario.rng scn in
  let servers = Scenario.servers scn in
  let conns =
    Array.map
      (fun client -> Scenario.connect scn ~src:client ~dst:(Rng.pick rng servers))
      (Scenario.clients scn)
  in
  let cfg =
    {
      Workload.Websearch.load = 0.6;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn = 80;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let fct = Workload.Websearch.run ~sched ~rng ~conns cfg in
  let elapsed_s = Sim_time.to_sec (Scheduler.now sched) in
  Scenario.quiesce scn;
  Format.printf "@.%s  (avg FCT %.2f ms)@."
    (Scenario.scheme_name scheme)
    (1e3 *. Workload.Fct_stats.avg fct);
  List.iter (pp_link ~elapsed_s Format.std_formatter) (fabric_links scn)

let () =
  Format.printf
    "Fabric links at 60%% load with one S2-L2 link failed, both directions@.";
  Format.printf
    "(n0/n1 are leaves, n2/n3 are spines; utilization is averaged over the run,@.";
  Format.printf "queue peak, drops and marks are exact per-link counters):@.";
  run Scenario.S_ecmp;
  run Scenario.S_clove_ecn
