type entity = E_host of Host.t | E_switch of Switch.t

type config = {
  queue_capacity_pkts : int;
  ecn_threshold_pkts : int;
  index_preserving : bool;
  int_capable : bool;
  seed : int;
}

let default_config =
  {
    queue_capacity_pkts = 256;
    ecn_threshold_pkts = 20;
    index_preserving = true;
    int_capable = false;
    seed = 42;
  }

type t = {
  topo : Topology.t;
  entities : entity array;  (* indexed by node id *)
  hosts : Host.t array;
  switches : Switch.t array;
  edge_links : (Link.t * Link.t) array;  (* indexed by edge id *)
  mutable reconvergences : int;
  mutable reconverge_hook : (unit -> unit) option;
}

let topology t = t.topo
let hosts t = t.hosts

let host_by_addr t addr =
  match t.entities.(Addr.to_int addr) with
  | E_host h -> h
  | E_switch _ -> invalid_arg "Fabric.host_by_addr: not a host"

let switches t = t.switches

let links_of_edge t (e : Topology.edge) = t.edge_links.(e.Topology.edge_id)
let all_links t =
  Array.to_list t.edge_links |> List.concat_map (fun (a, b) -> [ a; b ])

let make_queue config = Pkt_queue.create ~capacity_pkts:config.queue_capacity_pkts
    ~ecn_threshold_pkts:config.ecn_threshold_pkts ()

let create ?sched_of_node ~sched ~config topo =
  (* [sched_of_node] shards the fabric for PDES: each entity (and each
     link, keyed by its source node) lives on its shard's scheduler.
     The default — everything on [sched] — is the serial build. *)
  let sofn = match sched_of_node with Some f -> f | None -> fun _ -> sched in
  let nodes = Topology.nodes topo in
  let n = Array.length nodes in
  let entities = Array.make n (E_host (Host.create ~sched ~id:(-1) ~addr:(Addr.of_int 0))) in
  let hosts = ref [] and switches = ref [] in
  Array.iteri
    (fun id node ->
      match node with
      | Topology.Host_node _ ->
        let h = Host.create ~sched:(sofn id) ~id ~addr:(Addr.of_int id) in
        entities.(id) <- E_host h;
        hosts := h :: !hosts
      | Topology.Switch_node (level, _) ->
        let s =
          Switch.create ~sched:(sofn id) ~id ~level
            ~ecmp_seed:(Ecmp_hash.hash_tuple ~seed:config.seed (id, 7, 7, 7))
            ~index_preserving:config.index_preserving ~int_capable:config.int_capable ()
        in
        entities.(id) <- E_switch s;
        switches := s :: !switches)
    nodes;
  let edges = Topology.edges topo in
  let n_edges = List.length edges in
  let dummy =
    Link.create ~sched ~rate_bps:1.0 ~prop_delay:Sim_time.zero_span ~label:"dummy" ()
  in
  let edge_links = Array.make n_edges (dummy, dummy) in
  (* First pass: create links and register switch ports so that reverse-port
     ids exist before sinks are wired. *)
  let port_of = Hashtbl.create 64 in
  (* (edge_id, node) -> port id at that node, for switch endpoints *)
  List.iter
    (fun (e : Topology.edge) ->
      let mk src dst =
        Link.create ~sched:(sofn src) ~rate_bps:e.Topology.rate_bps
          ~prop_delay:e.Topology.delay
          ~queue:(make_queue config)
          ~label:(Printf.sprintf "n%d->n%d/%d" src dst e.Topology.bundle_index)
          ()
      in
      let l_ab = mk e.Topology.a e.Topology.b in
      let l_ba = mk e.Topology.b e.Topology.a in
      edge_links.(e.Topology.edge_id) <- (l_ab, l_ba);
      let register node link peer =
        match entities.(node) with
        | E_switch sw ->
          let p =
            Switch.add_port sw ~link ~peer ~parallel_index:e.Topology.bundle_index
          in
          Hashtbl.replace port_of (e.Topology.edge_id, node) p
        | E_host h -> Host.attach_uplink h link
      in
      register e.Topology.a l_ab e.Topology.b;
      register e.Topology.b l_ba e.Topology.a)
    edges;
  (* Second pass: wire sinks; a packet leaving a on edge e arrives at b on
     b's port for that same edge. *)
  List.iter
    (fun (e : Topology.edge) ->
      let l_ab, l_ba = edge_links.(e.Topology.edge_id) in
      let wire link dst_node =
        match entities.(dst_node) with
        | E_host h -> Link.set_sink link (fun pkt -> Host.deliver h pkt)
        | E_switch sw ->
          let in_port =
            match Hashtbl.find_opt port_of (e.Topology.edge_id, dst_node) with
            | Some p -> p
            | None -> invalid_arg "Fabric.create: sink wiring for unregistered port"
          in
          Link.set_sink link (fun pkt -> Switch.receive sw ~in_port pkt)
      in
      wire l_ab e.Topology.b;
      wire l_ba e.Topology.a)
    edges;
  let t =
    {
      topo;
      entities;
      hosts = Array.of_list (List.rev !hosts);
      switches = Array.of_list (List.rev !switches);
      edge_links;
      reconvergences = 0;
      reconverge_hook = None;
    }
  in
  t

let program_routes t =
  Array.iter Switch.clear_routes t.switches;
  Array.iter
    (fun h ->
      let dst = Host.id h in
      let nh = Routing.next_hops t.topo ~dst in
      Array.iter
        (fun sw ->
          match Hashtbl.find_opt nh (Switch.id sw) with
          | None -> ()
          | Some peers ->
            let ports =
              List.concat_map (fun peer -> Switch.ports_to_peer sw ~peer) peers
              |> List.filter (fun p -> Link.up (Switch.port_link sw p))
              |> List.sort Int.compare
            in
            if ports <> [] then
              Switch.set_routes sw (Host.addr h) (Array.of_list ports))
        t.switches)
    t.hosts

let set_reconverge_hook t f = t.reconverge_hook <- Some f
let reconvergences t = t.reconvergences

(* every topology change flows through here, modelling the underlay
   routing protocol reconverging exactly once per fault event *)
let reconverge t =
  program_routes t;
  t.reconvergences <- t.reconvergences + 1;
  match t.reconverge_hook with Some f -> f () | None -> ()

let fail_edge t e =
  Topology.fail_edge t.topo e;
  let l_ab, l_ba = links_of_edge t e in
  Link.set_up l_ab false;
  Link.set_up l_ba false;
  reconverge t

let restore_edge t e =
  Topology.restore_edge t.topo e;
  let l_ab, l_ba = links_of_edge t e in
  Link.set_up l_ab true;
  Link.set_up l_ba true;
  reconverge t

let set_edge_brownout t e ~capacity_frac ~loss_prob ~rng =
  let l_ab, l_ba = links_of_edge t e in
  (* one substream per direction, keyed on the link label so the loss
     pattern is stable regardless of how many edges are browned out *)
  Link.set_brownout l_ab ~capacity_frac ~loss_prob
    ~rng:(Rng.split_named rng ("brownout:" ^ Link.label l_ab));
  Link.set_brownout l_ba ~capacity_frac ~loss_prob
    ~rng:(Rng.split_named rng ("brownout:" ^ Link.label l_ba))

let clear_edge_brownout t e =
  let l_ab, l_ba = links_of_edge t e in
  Link.clear_brownout l_ab;
  Link.clear_brownout l_ba

let live_incident_edges t node =
  List.filter (fun (e : Topology.edge) -> not e.Topology.failed)
    (Topology.edges_of t.topo node)

let fail_switch t node =
  let failed = live_incident_edges t node in
  List.iter
    (fun (e : Topology.edge) ->
      Topology.fail_edge t.topo e;
      let l_ab, l_ba = links_of_edge t e in
      Link.set_up l_ab false;
      Link.set_up l_ba false)
    failed;
  reconverge t;
  failed

let restore_edges t edges =
  List.iter
    (fun (e : Topology.edge) ->
      Topology.restore_edge t.topo e;
      let l_ab, l_ba = links_of_edge t e in
      Link.set_up l_ab true;
      Link.set_up l_ba true)
    edges;
  reconverge t

let fold_queues t f init =
  Array.fold_left
    (fun acc (a, b) -> f (f acc (Link.queue a)) (Link.queue b))
    init t.edge_links

let total_drops t =
  fold_queues t (fun acc q -> acc + (Pkt_queue.stats q).Pkt_queue.dropped) 0

let total_marks t =
  fold_queues t (fun acc q -> acc + (Pkt_queue.stats q).Pkt_queue.marked) 0

let set_ecn_threshold t thr =
  fold_queues t
    (fun () q -> Pkt_queue.set_ecn_threshold q thr)
    ()
