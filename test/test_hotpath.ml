(* Hot-path allocation budget.

   The flagship websearch scenario (Clove-ECN, load 0.6, asymmetric,
   failure recovery on so the maintain tick and idle flowlet eviction
   run, seed 1, 20 jobs/conn) on the scheduler's only path: timer
   wheel, tagged events, one dispatch per event.  Minor-heap words per
   link transmission are a property of the build, not the host, so the
   budget is exact wherever the suite runs.  The case lives in its own
   executable and never enables the invariant auditor, so no earlier
   case warms the packet pool or adds audit bookkeeping to the measured
   run.
   The unit is the transmission, not the event: folding the switch
   pipeline into the wire delivery cut events per hop from three to two,
   so words/event rose although the words per packet fell.  History, in
   words/event: closure-per-event
   heap 21.1, wheel + tags 12.9, packet arenas + flat records 6.4; in
   words/transmission, 16.7 (6.0/event) with three events per hop, 14.8
   (7.4/event) with two, 8.43 once re-armable timers replaced the
   closure and handle each RTO, TLP, reorder-wait and feedback-carrier
   arming allocated, 7.20 with one event per hop, 6.96 once the build
   dropped -opaque and inlined across modules (7.17 under --profile
   dev).  The budget is that measurement plus one word. *)

open Experiments

let minor_words_budget = 7.96

let test_minor_words_per_transmission () =
  let params =
    {
      Scenario.default_params with
      Scenario.asymmetric = true;
      failure_recovery = true;
      seed = 1;
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
      Workload.Websearch.load = 0.6;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn = 20;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let sched = Scenario.sched scn in
  let minor0 = Gc.minor_words () in
  let fct = Workload.Websearch.run ~sched ~rng:(Scenario.rng scn) ~conns cfg in
  let minor_words = Gc.minor_words () -. minor0 in
  Scenario.quiesce scn;
  let transmissions =
    List.fold_left (fun n l -> n + Link.tx_packets l) 0
      (Fabric.all_links (Scenario.fabric scn))
  in
  Alcotest.(check bool) "flows completed" true (Workload.Fct_stats.count fct > 0);
  let per_tx = minor_words /. float_of_int transmissions in
  if per_tx > minor_words_budget then
    Alcotest.failf "%.2f minor words/transmission over %d transmissions exceeds the %.2f budget"
      per_tx transmissions minor_words_budget

let () =
  Alcotest.run "hotpath"
    [
      ( "hot-path",
        [
          Alcotest.test_case "minor words per transmission" `Quick
            test_minor_words_per_transmission;
        ] );
    ]
