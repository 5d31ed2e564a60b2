(* ------------------------ fat-tree demonstration ------------------ *)

(* A self-contained fat-tree scenario: hosts in pod 0 send to hosts in the
   last pod; every host runs a Clove vswitch.  Kept separate from
   [Scenario] (which models the paper's 2-tier testbed) to show the public
   API composes on an arbitrary topology. *)
type ft_scenario = {
  ft_sched : Scheduler.t;
  ft_clients : Host.t array;
  ft_servers : Host.t array;
  ft_stacks : (int, Transport.Stack.t) Hashtbl.t;
  ft_vswitches : (int, Clove.Vswitch.t) Hashtbl.t;
  ft_rng : Rng.t;
  mutable ft_next_conn : int;
}

let build_fat_tree ~scheme ~seed ~degrade =
  let sched = Scheduler.create () in
  let rng = Rng.create seed in
  let ft =
    Topology.fat_tree ~k:4 ~host_rate_bps:10e9 ~fabric_rate_bps:10e9
      ~host_delay:(Sim_time.us 2) ~fabric_delay:(Sim_time.us 2)
  in
  let config = { Fabric.default_config with Fabric.seed } in
  let fabric = Fabric.create ~sched ~config ft.Topology.ft_topo in
  Fabric.program_routes fabric;
  if degrade then begin
    (* fail one aggregation-to-core link of the last pod *)
    let agg = ft.Topology.ft_aggs.(3).(0) and core = ft.Topology.ft_cores.(0) in
    match Topology.find_edge ft.Topology.ft_topo ~a:agg ~b:core ~bundle_index:0 with
    | Some e -> Fabric.fail_edge fabric e
    | None -> invalid_arg "fat_tree: expected agg-core edge"
  end;
  let cfg = Clove.Clove_config.with_rtt (Sim_time.us 60) in
  let stacks = Det.create 32 and vswitches = Det.create 32 in
  Array.iter
    (fun host ->
      let st = Transport.Stack.create () in
      Hashtbl.replace stacks (Host.id host) st;
      let v =
        Clove.Vswitch.create ~host ~stack:st ~scheme ~cfg
          ~rng:(Rng.split_named rng ("host:" ^ string_of_int (Host.id host)))
          ()
      in
      Hashtbl.replace vswitches (Host.id host) v)
    (Fabric.hosts fabric);
  let host_of id = Fabric.host_by_addr fabric (Addr.of_int id) in
  {
    ft_sched = sched;
    ft_clients = Array.map host_of ft.Topology.ft_hosts.(0);
    ft_servers = Array.map host_of ft.Topology.ft_hosts.(3);
    ft_stacks = stacks;
    ft_vswitches = vswitches;
    ft_rng = rng;
    ft_next_conn = 0;
  }

let ft_vswitch scn host =
  match Hashtbl.find_opt scn.ft_vswitches (Host.id host) with
  | Some v -> v
  | None -> invalid_arg "ft_connect: host has no vswitch"

let ft_stack scn host =
  match Hashtbl.find_opt scn.ft_stacks (Host.id host) with
  | Some s -> s
  | None -> invalid_arg "ft_connect: host has no stack"

let ft_connect scn ~src ~dst =
  let conn_id = scn.ft_next_conn in
  scn.ft_next_conn <- conn_id + 1;
  let v_src = ft_vswitch scn src in
  let v_dst = ft_vswitch scn dst in
  Clove.Vswitch.add_destination v_src (Host.addr dst);
  Clove.Vswitch.add_destination v_dst (Host.addr src);
  let cfg = Transport.Tcp_config.default in
  let sender =
    Transport.Tcp.create_sender ~sched:scn.ft_sched ~cfg ~conn_id ~src:(Host.addr src)
      ~dst:(Host.addr dst)
      ~src_port:(20000 + (conn_id * 4))
      ~dst_port:80
      ~tx:(fun pkt -> Clove.Vswitch.tx v_src pkt)
      ()
  in
  Transport.Stack.register_sender (ft_stack scn src) sender;
  let receiver =
    Transport.Tcp.create_receiver ~sched:scn.ft_sched ~cfg ~conn_id ~addr:(Host.addr dst)
      ~peer:(Host.addr src) ~src_port:80
      ~dst_port:(20000 + (conn_id * 4))
      ~tx:(fun pkt -> Clove.Vswitch.tx v_dst pkt)
      ()
  in
  Transport.Stack.register_receiver (ft_stack scn dst) receiver;
  fun ~bytes ~on_complete -> Transport.Tcp.send sender ~bytes ~on_complete

let fat_tree_point ~scheme ~seed ~load ~jobs =
  let scn = build_fat_tree ~scheme ~seed ~degrade:true in
  let conns =
    Array.map
      (fun client ->
        let server = Rng.pick scn.ft_rng scn.ft_servers in
        ft_connect scn ~src:client ~dst:server)
      scn.ft_clients
  in
  let cfg =
    {
      Workload.Websearch.load;
      (* pod-to-pod capacity: 4 hosts x 10G in a k=4 fat tree *)
      bisection_bps = 40e9;
      jobs_per_conn = jobs;
      size_dist =
        Workload.Flow_size_dist.scale Workload.Flow_size_dist.web_search 0.25;
      start_at = Sim_time.ms 20;
    }
  in
  let fct = Workload.Websearch.run ~sched:scn.ft_sched ~rng:scn.ft_rng ~conns cfg in
  Det.iter_sorted ~compare:Int.compare (fun _ v -> Clove.Vswitch.stop v) scn.ft_vswitches;
  Det.iter_sorted ~compare:Int.compare (fun _ s -> Transport.Stack.stop_all s) scn.ft_stacks;
  Workload.Fct_stats.avg fct

let fat_tree opts =
  let schemes = [ Clove.Vswitch.Ecmp; Clove.Vswitch.Edge_flowlet; Clove.Vswitch.Clove_ecn ] in
  let header =
    "load%/avgFCT(s)" :: List.map Clove.Vswitch.scheme_name schemes
  in
  let table = Stats.Table.create ~header in
  List.iter
    (fun load ->
      let values =
        List.map
          (fun scheme ->
            let sum =
              List.fold_left
                (fun acc seed ->
                  acc +. fat_tree_point ~scheme ~seed ~load ~jobs:opts.Sweep.jobs_per_conn)
                0.0 opts.Sweep.seeds
            in
            sum /. float_of_int (List.length opts.Sweep.seeds))
          schemes
      in
      Stats.Table.add_float_row table ~label:(Printf.sprintf "%.0f" (100.0 *. load)) values)
    [ 0.3; 0.5; 0.7 ];
  {
    Figures.id = "ext-fattree";
    title = "Clove on a k=4 fat-tree with a degraded agg-core link (extension)";
    paper_claim =
      "Section 3.1: path discovery \"can work with any topologies with \
       ECMP-based layer-3 routing\" — Clove-ECN should beat ECMP on the \
       3-tier topology too";
    table;
  }

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
  (* fail one S2-L2 link at t = 60 ms, while traffic is flowing; load
     0.4 keeps the pre-failure fabric clearly stable so the degradation
     and recovery stand out.  Parsed against this topology's names, so a
     renumbering fails here instead of silently running without the
     failure. *)
  let plan =
    match
      Faults.Fault_plan.parse ~names:(Scenario.fault_names params)
        "down s2-l2b @60ms"
    with
    | Ok plan -> plan
    | Error e -> invalid_arg ("Extensions.failure_timeline: " ^ e)
  in
  let run scheme =
    let scn = Scenario.build ~scheme params in
    let sched = Scenario.sched scn in
    let rng = Scenario.rng scn in
    let servers = Scenario.servers scn in
    (* one-to-one client/server pairing removes server-access-link
       collisions, so the timeline isolates the fabric failure *)
    let conns =
      Array.mapi
        (fun i client -> Scenario.connect scn ~src:client ~dst:servers.(i))
        (Scenario.clients scn)
    in
    let engine = Chaos.arm_faults scn plan in
    let cfg =
      {
        Workload.Websearch.load = 0.4;
        bisection_bps = Scenario.bisection_bps scn;
        jobs_per_conn = jobs;
        size_dist = Scenario.size_dist scn;
        start_at = Scenario.warmup scn;
      }
    in
    let fct = Workload.Websearch.run ~sched ~rng ~conns cfg in
    Faults.Fault_engine.stop engine;
    Scenario.quiesce scn;
    Workload.Fct_stats.timeline fct ~bucket_sec:0.01
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
  let base = { Scenario.default_params with Scenario.asymmetric = true } in
  let variants =
    [
      ("Clove-ECN", base);
      ("Clove-ECN + DCTCP guests", { base with Scenario.guest_dctcp = true });
    ]
  in
  let header = "load%/avgFCT(s)" :: List.map fst variants in
  let table = Stats.Table.create ~header in
  List.iter
    (fun load ->
      let values =
        List.map
          (fun (_, params) ->
            Workload.Fct_stats.avg
              (Sweep.websearch_point ~scheme:Scenario.S_clove_ecn ~params ~load ~opts))
          variants
      in
      Stats.Table.add_float_row table ~label:(Printf.sprintf "%.0f" (100.0 *. load)) values)
    [ 0.4; 0.6; 0.8 ];
  {
    Figures.id = "ext-dctcp";
    title = "Clove-ECN with DCTCP guest stacks, asymmetric (extension)";
    paper_claim =
      "Section 7: DCTCP congestion control is complementary to Clove load \
       balancing and keeps queues shorter";
    table;
  }

(* ----------------------------- variants ---------------------------- *)

let variants opts =
  let base = { Scenario.default_params with Scenario.asymmetric = true } in
  let cases =
    [
      ("Clove-ECN", Scenario.S_clove_ecn, base);
      ("Clove-Latency", Scenario.S_clove_latency, base);
      ( "Clove-Lat+adaptive-gap",
        Scenario.S_clove_latency,
        { base with Scenario.adaptive_gap = true } );
      ( "Clove-ECN+reorder",
        Scenario.S_clove_ecn,
        { base with Scenario.clove_reorder = true } );
      ( "Clove-ECN rewrite",
        Scenario.S_clove_ecn,
        { base with Scenario.rewrite_mode = true } );
      ("LetFlow", Scenario.S_letflow, base);
    ]
  in
  let header = "load%/avgFCT(s)" :: List.map (fun (n, _, _) -> n) cases in
  let table = Stats.Table.create ~header in
  List.iter
    (fun load ->
      let values =
        List.map
          (fun (_, scheme, params) ->
            Workload.Fct_stats.avg (Sweep.websearch_point ~scheme ~params ~load ~opts))
          cases
      in
      Stats.Table.add_float_row table ~label:(Printf.sprintf "%.0f" (100.0 *. load)) values)
    [ 0.5; 0.7 ];
  {
    Figures.id = "ext-variants";
    title = "Section 7 variants and LetFlow, asymmetric (extension)";
    paper_claim =
      "latency feedback is an alternative congestion signal; flowlet \
       sequence numbers remove residual reordering; the rewrite mode \
       serves non-overlay environments; LetFlow needs new switches for a \
       similar effect to Edge-Flowlet";
    table;
  }

(* ---------------------------- data mining -------------------------- *)

let data_mining opts =
  let base =
    { Scenario.default_params with Scenario.asymmetric = true; data_mining = true }
  in
  let schemes = [ Scenario.S_ecmp; Scenario.S_edge_flowlet; Scenario.S_clove_ecn ] in
  let header = "load%/avgFCT(s)" :: List.map Scenario.scheme_name schemes in
  let table = Stats.Table.create ~header in
  List.iter
    (fun load ->
      let values =
        List.map
          (fun scheme ->
            Workload.Fct_stats.avg
              (Sweep.websearch_point ~scheme ~params:base ~load ~opts))
          schemes
      in
      Stats.Table.add_float_row table ~label:(Printf.sprintf "%.0f" (100.0 *. load)) values)
    [ 0.4; 0.6 ];
  {
    Figures.id = "ext-datamining";
    title = "Data-mining workload (heavier tail), asymmetric (extension)";
    paper_claim =
      "(extension; the paper evaluates web-search only) the ordering should \
       hold for other empirical distributions";
    table;
  }

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
