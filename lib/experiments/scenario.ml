type scheme =
  | S_ecmp
  | S_edge_flowlet
  | S_clove_ecn
  | S_clove_int
  | S_clove_latency
  | S_presto
  | S_mptcp
  | S_conga
  | S_letflow
  | S_caft

let scheme_name = function
  | S_ecmp -> "ECMP"
  | S_edge_flowlet -> "Edge-Flowlet"
  | S_clove_ecn -> "Clove-ECN"
  | S_clove_int -> "Clove-INT"
  | S_clove_latency -> "Clove-Latency"
  | S_presto -> "Presto"
  | S_mptcp -> "MPTCP"
  | S_conga -> "CONGA"
  | S_letflow -> "LetFlow"
  | S_caft -> "CAFT"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "ecmp" -> Some S_ecmp
  | "edge-flowlet" | "edgeflowlet" -> Some S_edge_flowlet
  | "clove-ecn" | "clove" -> Some S_clove_ecn
  | "clove-int" -> Some S_clove_int
  | "clove-latency" -> Some S_clove_latency
  | "presto" -> Some S_presto
  | "mptcp" -> Some S_mptcp
  | "conga" -> Some S_conga
  | "letflow" -> Some S_letflow
  | "caft" -> Some S_caft
  | _ -> None

type params = {
  leaves : int;
  pods : int;
  cores : int;
  hosts_per_leaf : int;
  fabric_rate_bps : float;
  core_rate_bps : float;
  asymmetric : bool;
  ecn_threshold_pkts : int;
  flowlet_gap : Sim_time.span option;
  k_paths_override : int option;
  weight_cut_override : float option;
  rtt_estimate : Sim_time.span;
  conns_per_client : int;
  size_scale : float;
  guest_dctcp : bool;
  rewrite_mode : bool;
  clove_reorder : bool;
  adaptive_gap : bool;
  probe_interval : Sim_time.span option;
  failure_recovery : bool;
  data_mining : bool;
  seed : int;
}

let default_params =
  {
    leaves = 2;
    pods = 1;
    cores = 0;
    hosts_per_leaf = 8;
    fabric_rate_bps = 20e9;
    core_rate_bps = 0.0;
    asymmetric = false;
    ecn_threshold_pkts = 20;
    flowlet_gap = None;
    k_paths_override = None;
    weight_cut_override = None;
    rtt_estimate = Sim_time.us 40;
    conns_per_client = 1;
    size_scale = 0.25;
    guest_dctcp = false;
    rewrite_mode = false;
    clove_reorder = false;
    adaptive_gap = false;
    probe_interval = None;
    (* off in the paper-claim scenarios: the recovery machinery is opt-in
       for chaos experiments, so baseline figures match the seed exactly *)
    failure_recovery = false;
    data_mining = false;
    seed = 1;
  }

let host_rate_bps = 10e9 (* every host NIC *)
let spines = 2 (* per pod *)
let hop_delay = Sim_time.us 2 (* every link's *)
let mptcp_subflows = 4

type pdes = {
  shard : Shard.t;
  partition : Partition.t;
  scheds : Scheduler.t array; (* indexed by shard id *)
}

type t = {
  sched : Scheduler.t;
  fabric : Fabric.t;
  topology : Topology.clos;
  clients : Host.t array;
  servers : Host.t array;
  scheme : scheme;
  params : params;
  rng : Rng.t;
  stacks : Transport.Stack.t option array; (* indexed by node id *)
  vswitches : Clove.Vswitch.t option array; (* indexed by node id *)
  conga : Fabric_lb.Conga.t option;
  caft : Fabric_lb.Caft.t option;
  dist : Stats.Cdf.t;
  mode : Run_mode.t; (* with [shards] the effective width *)
  shards : int; (* 1 = serial; >= 2 sharded *)
  pdes : pdes option; (* Some iff shards >= 2 *)
  mutable conn_shards : int list; (* per conn id, src-host shard; reversed *)
  mutable next_conn : int;
  mutable next_port : int;
}

let sched t = t.sched
let fabric t = t.fabric
let clients t = t.clients
let servers t = t.servers
let params t = t.params
let rng t = t.rng
let size_dist t = t.dist

let scaled_cutoff params cutoff =
  int_of_float (float_of_int cutoff *. params.size_scale)

(* the entry of [host] in a per-host array indexed by node id *)
let of_host what per_host host =
  let id = Host.id host in
  match if id >= 0 && id < Array.length per_host then per_host.(id) else None with
  | Some x -> x
  | None -> invalid_arg ("Scenario." ^ what ^ ": unknown host")

let vswitch t host = of_host "vswitch" t.vswitches host
let stack t host = of_host "stack" t.stacks host

let total_leaves params = Int.max 1 params.pods * params.leaves
let client_leaves params = Int.max 1 (total_leaves params / 2)

(* the topology is a pure description — cheap enough to build standalone
   for parse-time fault-name validation.  One pod has no core tier (and
   ignores [cores]); more pods default to 2 core uplinks per spine (local
   path diversity for hop-by-hop schemes under core degradation) at the
   fabric rate *)
let build_topology params =
  if total_leaves params < 2 then
    invalid_arg "Scenario: need at least 2 leaves total";
  let cores =
    if params.pods = 1 then 0
    else if params.cores > 0 then params.cores
    else 2 * spines
  in
  Topology.clos ~pods:params.pods ~leaves_per_pod:params.leaves
    ~spines_per_pod:spines ~cores ~hosts_per_leaf:params.hosts_per_leaf
    ~parallel:2 ~host_rate_bps ~fabric_rate_bps:params.fabric_rate_bps
    ~core_rate_bps:
      (if params.core_rate_bps > 0.0 then params.core_rate_bps
       else params.fabric_rate_bps)
    ~delay:hop_delay

let fault_names params = Faults.Fault_engine.clos_naming (build_topology params)

let bisection_bps t =
  (* aggregate client-side NIC rate: leaves/2 client leaves worth of
     hosts (the historical [hosts_per_leaf * host_rate] at 2 leaves) *)
  float_of_int (t.params.hosts_per_leaf * client_leaves t.params)
  *. host_rate_bps

let warmup _t = Sim_time.ms 20

let vswitch_scheme = function
  | S_ecmp -> Clove.Vswitch.Ecmp
  | S_edge_flowlet -> Clove.Vswitch.Edge_flowlet
  | S_clove_ecn -> Clove.Vswitch.Clove_ecn
  | S_clove_int -> Clove.Vswitch.Clove_int
  | S_clove_latency -> Clove.Vswitch.Clove_latency
  | S_presto -> Clove.Vswitch.Presto
  | S_mptcp -> Clove.Vswitch.Ecmp
  | S_conga -> Clove.Vswitch.Direct
  | S_letflow -> Clove.Vswitch.Direct
  | S_caft -> Clove.Vswitch.Direct

let build ?(mode = Run_mode.default) ?shards ~scheme params =
  let shards = match shards with Some s -> s | None -> mode.Run_mode.shards in
  if shards < 1 then invalid_arg "Scenario.build: shards must be >= 1";
  (* Graceful degradation keeps the digest contract ("identical at any
     --shards >= 1") for every scenario: MPTCP couples both endpoints on
     one scheduler so it runs the serial fallback, and one shard per
     leaf is the finest partition so wider requests clamp. *)
  let shards =
    if shards >= 2 && scheme = S_mptcp then 1
    else Int.min shards (total_leaves params)
  in
  let mode = { mode with Run_mode.shards } in
  let sched = Scheduler.create ~mode () in
  let rng = Rng.create params.seed in
  let ({ Topology.topo; host_ids; leaf_ids; spine_ids; core_ids; _ } as topology) =
    build_topology params
  in
  let config =
    { Fabric.ecn_threshold_pkts = params.ecn_threshold_pkts; seed = params.seed }
  in
  (* Sharded layout: each leaf and its hosts form a shard (spines and
     cores round-robin), so host links never cross a boundary and every
     cut edge is a fabric link — the lookahead window is the hop delay. *)
  let pdes_plan =
    if shards < 2 then None
    else begin
      let width = shards in
      let node_shard = Array.make (Topology.node_count topo) 0 in
      Array.iteri
        (fun leaf hosts ->
          node_shard.(leaf_ids.(leaf)) <- leaf mod width;
          Array.iter (fun h -> node_shard.(h) <- leaf mod width) hosts)
        host_ids;
      let round_robin = Array.iteri (fun j id -> node_shard.(id) <- j mod width) in
      round_robin spine_ids;
      round_robin core_ids;
      let partition =
        Partition.plan ~topo ~nshards:width ~shard_of_node:(fun id -> node_shard.(id))
      in
      let scheds = Array.init width (fun _ -> Scheduler.create ~mode ()) in
      Some (partition, scheds)
    end
  in
  let fabric =
    match pdes_plan with
    | None -> Fabric.create ~sched ~config topo
    | Some (partition, scheds) ->
      Fabric.create
        ~sched_of_node:(fun id -> scheds.(Partition.shard_of_node partition id))
        ~sched ~config topo
  in
  let pdes =
    match pdes_plan with
    | None -> None
    | Some (partition, scheds) ->
      Partition.attach partition ~fabric ~scheds;
      let shard =
        Shard.create ~scheds ~global:sched
          ~window_ns:(Partition.window_ns partition)
          ~exchange:(fun () -> Partition.exchange partition)
          ()
      in
      Some { shard; partition; scheds }
  in
  Fabric.program_routes fabric;
  (* the paper's failure: one of the two 40G links between spine S2 and
     leaf L2 *)
  if params.asymmetric then begin
    let l2 = leaf_ids.(1) and s2 = spine_ids.(1) in
    match Topology.find_edge topo ~a:l2 ~b:s2 ~bundle_index:1 with
    | Some e -> Fabric.fail_edge fabric e
    | None -> invalid_arg "Scenario.build: expected parallel link missing"
  end;
  let base_cfg = Clove.Clove_config.with_rtt params.rtt_estimate in
  let clove_cfg =
    let cfg =
      match params.flowlet_gap with
      | None -> base_cfg
      | Some gap -> { base_cfg with Clove.Clove_config.flowlet_gap = gap }
    in
    let cfg =
      match params.k_paths_override with
      | None -> cfg
      | Some k -> { cfg with Clove.Clove_config.k_paths = k }
    in
    let cfg =
      match params.weight_cut_override with
      | None -> cfg
      | Some beta -> { cfg with Clove.Clove_config.weight_cut = beta }
    in
    let cfg =
      {
        cfg with
        Clove.Clove_config.rewrite_mode = params.rewrite_mode;
        clove_reorder = params.clove_reorder;
        adaptive_flowlet_gap = params.adaptive_gap;
        expose_ecn_to_guest = params.guest_dctcp;
        failure_recovery = params.failure_recovery;
      }
    in
    match params.probe_interval with
    | None -> cfg
    | Some every -> { cfg with Clove.Clove_config.probe_interval = every }
  in
  let n_nodes = Topology.node_count topo in
  let stacks = Array.make n_nodes None and vswitches = Array.make n_nodes None in
  let route_epoch () = Fabric.reconvergences fabric in
  let degraded_spine = spine_ids.(1) in
  Array.iter
    (fun host ->
      let st = Transport.Stack.create () in
      stacks.(Host.id host) <- Some st;
      let v =
        Clove.Vswitch.create ~route_epoch ~host ~stack:st ~scheme:(vswitch_scheme scheme)
          ~cfg:clove_cfg
          ~rng:(Rng.split_named rng ("host:" ^ string_of_int (Host.id host)))
          ()
      in
      (* Presto gets the paper's "benefit of the doubt": ideal static path
         weights reflecting the asymmetric topology *)
      if scheme = S_presto && params.asymmetric then
        Clove.Vswitch.set_presto_weight_fn v (fun path ->
            let through_degraded =
              List.exists (fun h -> h.Packet.hop_node = degraded_spine) path
            in
            if through_degraded then 1.0 else 2.0);
      vswitches.(Host.id host) <- Some v)
    (Fabric.hosts fabric);
  let host_of_node id = Fabric.host_by_addr fabric (Addr.of_int id) in
  (* first half of the leaves hold clients, the rest servers; at the
     default 2 leaves this is the historical leaf-0/leaf-1 split *)
  let ncl = client_leaves params in
  let leaf_hosts lo hi =
    Array.map host_of_node
      (Array.concat (List.init (hi - lo) (fun i -> host_ids.(lo + i))))
  in
  let clients = leaf_hosts 0 ncl in
  let servers = leaf_hosts ncl (total_leaves params) in
  if scheme = S_letflow then
    Fabric_lb.Letflow.install ~rng:(Rng.split_named rng "letflow") fabric;
  let conga =
    if scheme = S_conga then
      (* CONGA's 500 us flowlet gap is ~5x its testbed RTT; scale the same
         way relative to ours *)
      Some
        (Fabric_lb.Conga.install
           ~flowlet_gap:(Sim_time.mul_span params.rtt_estimate 5.0)
           fabric)
    else None
  in
  let caft =
    if scheme = S_caft then
      (* same gap policy as CONGA; installing also registers the
         re-weighting reconvergence hook on the fabric *)
      Some
        (Fabric_lb.Caft.install
           ~flowlet_gap:(Sim_time.mul_span params.rtt_estimate 5.0)
           fabric)
    else None
  in
  {
    sched;
    fabric;
    topology;
    clients;
    servers;
    scheme;
    params;
    rng;
    stacks;
    vswitches;
    conga;
    caft;
    dist =
      Workload.Flow_size_dist.scale
        (if params.data_mining then Workload.Flow_size_dist.data_mining
         else Workload.Flow_size_dist.web_search)
        params.size_scale;
    mode;
    shards;
    pdes;
    conn_shards = [];
    next_conn = 0;
    next_port = 20000;
  }

let fresh_conn t =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let port = t.next_port in
  t.next_port <- port + 16;
  (id, port)

let shard_of_host t host =
  match t.pdes with
  | None -> 0
  | Some p -> Partition.shard_of_node p.partition (Host.id host)

let connect t ~src ~dst =
  let dctcp = t.params.guest_dctcp in
  let conn_id, base_port = fresh_conn t in
  t.conn_shards <- shard_of_host t src :: t.conn_shards;
  let v_src = vswitch t src and v_dst = vswitch t dst in
  Clove.Vswitch.add_destination v_src (Host.addr dst);
  Clove.Vswitch.add_destination v_dst (Host.addr src);
  let tx_src pkt = Clove.Vswitch.tx v_src pkt in
  let tx_dst pkt = Clove.Vswitch.tx v_dst pkt in
  match t.scheme with
  | S_mptcp ->
    (* one scheduler spans both endpoints; [build] rejects this sharded *)
    let conn =
      Transport.Mptcp.create ~sched:t.sched ~dctcp ~conn_id
        ~subflows:mptcp_subflows ~src:(Host.addr src) ~dst:(Host.addr dst)
        ~base_port ~dst_port:80 ~tx_src ~tx_dst ~src_stack:(stack t src)
        ~dst_stack:(stack t dst) ()
    in
    fun ~bytes ~on_complete -> Transport.Mptcp.send conn ~bytes ~on_complete
  | _ ->
    (* each endpoint on its own host's scheduler: the fabric scheduler in
       serial builds, the host's shard under PDES *)
    let sender =
      Transport.Tcp.create_sender ~sched:(Host.sched src) ~dctcp ~conn_id
        ~src:(Host.addr src) ~dst:(Host.addr dst) ~src_port:base_port ~dst_port:80
        ~tx:tx_src ()
    in
    Transport.Stack.register_sender (stack t src) sender;
    let receiver =
      Transport.Tcp.create_receiver ~conn_id ~addr:(Host.addr dst)
        ~peer:(Host.addr src) ~src_port:80 ~dst_port:base_port ~tx:tx_dst ()
    in
    Transport.Stack.register_receiver (stack t dst) receiver;
    fun ~bytes ~on_complete -> Transport.Tcp.send sender ~bytes ~on_complete

let conga t = t.conga
let caft t = t.caft
let fault_naming t = Faults.Fault_engine.clos_naming t.topology
let total_drops t = Fabric.total_drops t.fabric
let total_marks t = Fabric.total_marks t.fabric
let shards t = t.shards
let shard t = match t.pdes with Some p -> Some p.shard | None -> None

(* Run the websearch workload on this scenario, honoring its execution
   mode.  [conns] must be every connection created on [t], in creation
   order, so connection indices map onto the tracked source shards.  An
   audited run ends at a width-invariant instant, one hop delay past the
   last completion: a sharded run stops at the barrier of the window
   holding it, less than one window (at most one hop delay) later, so
   every width can stop there having fired exactly the same events. *)
let run_websearch t ~rng ~conns cfg =
  let audit = t.mode.Run_mode.audit in
  let audit_end stats = Sim_time.add (Workload.Fct_stats.last_finish stats) hop_delay in
  match t.pdes with
  | None ->
    let stats = Workload.Websearch.run ~sched:t.sched ~rng ~conns cfg in
    if audit then Scheduler.run ~until:(audit_end stats) t.sched;
    (* canonical record order, like every other width *)
    Workload.Fct_stats.canonicalize stats;
    stats
  | Some p ->
    let width = Array.length p.scheds in
    let conn_shard = Array.of_list (List.rev t.conn_shards) in
    if Array.length conns <> Array.length conn_shard then
      invalid_arg
        "Scenario.run_websearch: pass every connection of this scenario, in \
         creation order";
    (* shard-private sinks: each connection records and decrements on its
       source host's shard, so the workload adds no cross-shard state *)
    let stats = Array.init width (fun _ -> Workload.Fct_stats.create ()) in
    let remaining = Array.init width (fun _ -> ref 0) in
    Array.iteri
      (fun i _ ->
        let r = remaining.(conn_shard.(i)) in
        r := !r + cfg.Workload.Websearch.jobs_per_conn)
      conns;
    Workload.Websearch.arm
      ~sched_of_conn:(fun i -> p.scheds.(conn_shard.(i)))
      ~stats_of_conn:(fun i -> stats.(conn_shard.(i)))
      ~remaining_of_conn:(fun i -> remaining.(conn_shard.(i)))
      ~rng ~conns cfg;
    Shard.drive p.shard ~finished:(fun () ->
        Array.for_all (fun r -> !r = 0) remaining);
    let merged =
      Array.fold_left Workload.Fct_stats.merge (Workload.Fct_stats.create ())
        stats
    in
    if audit then begin
      if Sim_time.compare_span (Sim_time.ns (Shard.window_ns p.shard)) hop_delay > 0 then
        invalid_arg "Scenario.run_websearch: audit needs a window of at most one hop delay";
      Shard.drive_until p.shard ~until:(audit_end merged)
    end;
    Workload.Fct_stats.canonicalize merged;
    merged

let ledger t =
  let scheds =
    match t.pdes with None -> [ t.sched ] | Some p -> t.sched :: Array.to_list p.scheds
  in
  Ledger.measure t.fabric ~scheds

let quiesce t =
  Array.iter (Option.iter Clove.Vswitch.stop) t.vswitches;
  Array.iter (Option.iter Transport.Stack.stop_all) t.stacks;
  match t.pdes with Some p -> Shard.shutdown p.shard | None -> ()
