type node = Host_node of int | Switch_node of Switch.level * int

type edge = {
  edge_id : int;
  a : int;
  b : int;
  rate_bps : float;
  delay : Sim_time.span;
  bundle_index : int;
  mutable failed : bool;
}

type t = {
  mutable node_list : node list;  (* reversed *)
  mutable n_nodes : int;
  mutable edge_list : edge list;  (* reversed *)
  mutable n_edges : int;
  incidence : edge list Int_table.t; (* node id -> incident edges, newest first *)
}

let create () =
  {
    node_list = [];
    n_nodes = 0;
    edge_list = [];
    n_edges = 0;
    incidence = Int_table.create ~capacity:64 ~dummy:[];
  }

let add_node t node =
  let id = t.n_nodes in
  t.node_list <- node :: t.node_list;
  t.n_nodes <- t.n_nodes + 1;
  id

let add_host t =
  let id = t.n_nodes in
  add_node t (Host_node id)

let add_switch t level =
  let id = t.n_nodes in
  add_node t (Switch_node (level, id))

let incident t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Topology: unknown node id";
  Int_table.find_default t.incidence id []

let connect t a b ~rate_bps ~delay ?(bundle_index = 0) () =
  let edge =
    { edge_id = t.n_edges; a; b; rate_bps; delay; bundle_index; failed = false }
  in
  t.n_edges <- t.n_edges + 1;
  t.edge_list <- edge :: t.edge_list;
  Int_table.set t.incidence a (edge :: incident t a);
  Int_table.set t.incidence b (edge :: incident t b);
  edge

let nodes t = Array.of_list (List.rev t.node_list)
let node t id =
  if id < 0 || id >= t.n_nodes then invalid_arg "Topology.node: bad id";
  List.nth t.node_list (t.n_nodes - 1 - id)

let node_count t = t.n_nodes
let edges t = List.rev t.edge_list
let edges_of t id = List.rev (incident t id)

let live_neighbors t id =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      if e.failed then None
      else
        let peer = if e.a = id then e.b else e.a in
        if Hashtbl.mem seen peer then None
        else begin
          Hashtbl.add seen peer ();
          Some peer
        end)
    (edges_of t id)

let fail_edge _t e = e.failed <- true
let restore_edge _t e = e.failed <- false

let is_host t id = match node t id with Host_node _ -> true | Switch_node _ -> false

let find_edge t ~a ~b ~bundle_index =
  List.find_opt
    (fun e ->
      ((e.a = a && e.b = b) || (e.a = b && e.b = a)) && e.bundle_index = bundle_index)
    (edges_of t a)

type clos = {
  topo : t;
  host_ids : int array array;
  leaf_ids : int array;
  spine_ids : int array;
  core_ids : int array;
  pods : int;
  leaves_per_pod : int;
  spines_per_pod : int;
}

let clos ~pods ~leaves_per_pod ~spines_per_pod ~cores ~hosts_per_leaf ~parallel
    ~host_rate_bps ~fabric_rate_bps ~core_rate_bps ~delay =
  if pods < 1 || leaves_per_pod < 1 || spines_per_pod < 1 || cores < 0
     || hosts_per_leaf < 1 || parallel < 1
  then invalid_arg "Topology.clos: counts must be positive (cores >= 0)";
  if cores = 0 && pods > 1 then
    invalid_arg "Topology.clos: pods > 1 need a core tier";
  if cores mod spines_per_pod <> 0 then
    invalid_arg
      "Topology.clos: cores must be a multiple of spines_per_pod (core k \
       homes on spine k mod spines_per_pod of every pod)";
  let topo = create () in
  let leaf_ids =
    Array.init (pods * leaves_per_pod) (fun _ -> add_switch topo Switch.Leaf)
  in
  let spine_ids =
    Array.init (pods * spines_per_pod) (fun _ -> add_switch topo Switch.Spine)
  in
  let core_ids = Array.init cores (fun _ -> add_switch topo Switch.Core_sw) in
  let host_ids =
    Array.init (pods * leaves_per_pod) (fun leaf ->
        Array.init hosts_per_leaf (fun _ ->
            let h = add_host topo in
            let (_ : edge) =
              connect topo h leaf_ids.(leaf) ~rate_bps:host_rate_bps ~delay ()
            in
            h))
  in
  (* intra-pod full bipartite leaf <-> spine, [parallel] bundles *)
  for pod = 0 to pods - 1 do
    for l = 0 to leaves_per_pod - 1 do
      for s = 0 to spines_per_pod - 1 do
        for k = 0 to parallel - 1 do
          let (_ : edge) =
            connect topo
              leaf_ids.((pod * leaves_per_pod) + l)
              spine_ids.((pod * spines_per_pod) + s)
              ~rate_bps:fabric_rate_bps ~delay ~bundle_index:k ()
          in
          ()
        done
      done
    done
  done;
  (* core k homes on spine (k mod spines_per_pod) of every pod, so each
     spine owns cores / spines_per_pod core uplinks — the oversubscription
     knob is the core count and [core_rate_bps] *)
  Array.iteri
    (fun k core ->
      for pod = 0 to pods - 1 do
        let spine = spine_ids.((pod * spines_per_pod) + (k mod spines_per_pod)) in
        let (_ : edge) = connect topo spine core ~rate_bps:core_rate_bps ~delay () in
        ()
      done)
    core_ids;
  { topo; host_ids; leaf_ids; spine_ids; core_ids; pods; leaves_per_pod; spines_per_pod }
