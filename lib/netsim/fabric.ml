type entity = E_host of Host.t | E_switch of Switch.t

type config = { ecn_threshold_pkts : int; seed : int }

let default_config = { ecn_threshold_pkts = 20; seed = 42 }

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

let make_queue config =
  Pkt_queue.create ~ecn_threshold_pkts:config.ecn_threshold_pkts ()

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
            ()
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
  (* per edge: its two links, each end's egress (a switch port or a host
     uplink), then each link's sink, the far end on its port for the edge *)
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
      (* [node]'s end: registers its egress, returns how to wire its ingress *)
      let attach node egress peer =
        match entities.(node) with
        | E_switch sw ->
          let in_port =
            Switch.add_port sw ~link:egress ~peer ~parallel_index:e.Topology.bundle_index
          in
          fun ingress -> Switch.wire_ingress sw ~in_port ingress
        | E_host h ->
          Host.attach_uplink h egress;
          fun ingress -> Link.set_sink ingress (fun pkt -> Host.deliver h pkt)
      in
      let wire_a = attach e.Topology.a l_ab e.Topology.b in
      let wire_b = attach e.Topology.b l_ba e.Topology.a in
      wire_b l_ab;
      wire_a l_ba)
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
          match Int_table.find_default nh (Switch.id sw) [] with
          | [] -> ()
          | peers ->
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

(* take [edges] down ([up = false]) or back up, both directions of
   each, then reconverge once *)
let set_edges t edges ~up =
  List.iter
    (fun (e : Topology.edge) ->
      if up then Topology.restore_edge t.topo e else Topology.fail_edge t.topo e;
      let l_ab, l_ba = links_of_edge t e in
      Link.set_up l_ab up;
      Link.set_up l_ba up)
    edges;
  reconverge t

let fail_edge t e = set_edges t [ e ] ~up:false
let restore_edge t e = set_edges t [ e ] ~up:true

let fail_switch t node =
  let failed = live_incident_edges t node in
  set_edges t failed ~up:false;
  failed

let restore_edges t edges = set_edges t edges ~up:true

let fold_queues t f init =
  Array.fold_left
    (fun acc (a, b) -> f (f acc (Link.queue a)) (Link.queue b))
    init t.edge_links

let total_drops t =
  fold_queues t (fun acc q -> acc + (Pkt_queue.stats q).Pkt_queue.dropped) 0

let total_marks t =
  fold_queues t (fun acc q -> acc + (Pkt_queue.stats q).Pkt_queue.marked) 0
