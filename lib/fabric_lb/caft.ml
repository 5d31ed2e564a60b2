(* CAFT-style congestion-aware fault-tolerant load balancing for 3-tier
   Clos fabrics.

   Every switch — leaf, spine and core — runs a flowlet picker that
   scores its live candidate ports by

     cost(port) = (eps + congestion(port)) / weight(port)

   where congestion is max(egress DRE utilization, queue occupancy) and
   weight is the *effective downstream capacity* toward the packet's
   destination leaf: min(port rate, capacity of the subtree behind the
   peer).  Weights are recomputed from the live topology on every
   reconvergence (the {!Fabric.set_reconverge_hook} fires with all
   shards quiescent, so the tables are read-only during PDES windows),
   which is the fault tolerance: a browned-out or dead core drains
   weight from every spine above it, and traffic re-spreads
   proportionally instead of hammering the survivor bundle.

   Deterministic throughout: no RNG — ties break to the lowest port
   index, and all per-packet state (flowlet tables, DRE, queues) is
   owned by the switch's own shard. *)

(* gray-port hold-down: the egress link's cumulative loss counters
   (wire loss from a brownout, drops on a dead link) advancing between
   two looks at the port is direct switch-local evidence of a gray
   failure the routing layer cannot see.  The port is scored as fully
   congested until [holddown] elapses without further loss, so flowlets
   stop oscillating back onto a silently lossy core the moment its
   queue drains. *)
type port_health = { mutable seen_drops : int; mutable bad_until : Sim_time.t }

type state = {
  sw : Switch.t;
  flowlets : int Clove.Flowlet.t; (* decision = port id *)
  health : port_health Int_table.t; (* port -> loss hold-down *)
  mutable decisions : int;
}

(* the congestion floor that keeps an idle narrow path from always
   beating a busy wide one *)
let eps = 0.05
let holddown = Sim_time.ms 50

(* the dummy of every [health] table: never mutated, never returned *)
let no_health = { seen_drops = -1; bad_until = Sim_time.zero }

type t = {
  fabric : Fabric.t;
  n_nodes : int;
  states : state array; (* one per switch *)
  leaf_of_host : int Int_table.t; (* host node id -> leaf node id *)
  cap : float Int_table.t; (* [cap_key node dst_leaf] -> bps; absent = 0 *)
  leaf_ids : int list; (* destination leaves, sorted *)
  mutable reweights : int;
}

let cap_key t node dst_leaf = (node * t.n_nodes) + dst_leaf
let capacity t node dst_leaf = Int_table.find_default t.cap (cap_key t node dst_leaf) 0.0

(* ---------------------------- reweighting -------------------------- *)

(* effective capacity of [node]'s live subtree toward [dst_leaf]:
   processed in decreasing-distance order seeded at the leaf, so every
   dist-decreasing neighbor is already final when a node is summed *)
let reweight t =
  let topo = Fabric.topology t.fabric in
  Int_table.clear t.cap;
  List.iter
    (fun dst_leaf ->
      let dist = Routing.distances topo ~dst:dst_leaf in
      let ordered =
        Int_table.fold
          (fun u du acc ->
            if u <> dst_leaf && not (Topology.is_host topo u) then (du, u) :: acc
            else acc)
          dist []
        |> List.sort (fun (d1, u1) (d2, u2) ->
               match Int.compare d1 d2 with 0 -> Int.compare u1 u2 | c -> c)
      in
      Int_table.set t.cap (cap_key t dst_leaf dst_leaf) infinity;
      List.iter
        (fun (du, u) ->
          let c =
            List.fold_left
              (fun acc (e : Topology.edge) ->
                if e.Topology.failed then acc
                else
                  let v = if e.Topology.a = u then e.Topology.b else e.Topology.a in
                  if Int_table.find_default dist v (-1) = du - 1 then
                    acc +. Float.min e.Topology.rate_bps (capacity t v dst_leaf)
                  else acc)
              0.0 (Topology.edges_of topo u)
          in
          if c > 0.0 then Int_table.set t.cap (cap_key t u dst_leaf) c)
        ordered)
    t.leaf_ids;
  t.reweights <- t.reweights + 1

(* ------------------------------ picking ---------------------------- *)

let congestion sw port =
  let link = Switch.port_link sw port in
  let q = Link.queue link in
  let occupancy =
    float_of_int (Pkt_queue.length q) /. float_of_int (Pkt_queue.capacity q)
  in
  Float.max (Link.utilization link) occupancy

(* true while the port is inside its loss hold-down window; observing
   the counters is part of the check, so every scoring pass refreshes
   the window if the port lost more packets since the last look *)
let port_gray st port =
  let link = Switch.port_link st.sw port in
  let drops = Link.down_drops link + Link.brownout_drops link in
  let h = Int_table.find_default st.health port no_health in
  if h == no_health then begin
    Int_table.set st.health port { seen_drops = drops; bad_until = Sim_time.zero };
    false
  end
  else begin
    let now = Scheduler.now (Switch.sched st.sw) in
    if drops > h.seen_drops then begin
      h.seen_drops <- drops;
      h.bad_until <- Sim_time.add now holddown
    end;
    Sim_time.( < ) now h.bad_until
  end

let choose t st ~dst_leaf ~candidates =
  st.decisions <- st.decisions + 1;
  let best = ref candidates.(0) and best_cost = ref infinity in
  Array.iter
    (fun port ->
      let peer = Switch.port_peer st.sw port in
      let w =
        Float.min (Link.rate_bps (Switch.port_link st.sw port)) (capacity t peer dst_leaf)
      in
      if w > 0.0 then begin
        let cong =
          if port_gray st port then 1.0 else congestion st.sw port
        in
        let cost = (eps +. cong) /. w in
        (* strict [<]: equal costs keep the earlier (lowest) port *)
        if cost < !best_cost then begin
          best_cost := cost;
          best := port
        end
      end)
    candidates;
  !best

let picker t st _sw ~in_port pkt ~candidates =
  ignore in_port;
  let n = Array.length candidates in
  if n = 1 then candidates.(0)
  else
    let dst = Packet.route_dst pkt in
    let dst_leaf = Int_table.find_default t.leaf_of_host (Addr.to_int dst) (-1) in
    if dst_leaf >= 0 then
      Flowlet_route.route st.flowlets pkt ~candidates ~choose:(fun () ->
          choose t st ~dst_leaf ~candidates)
    else candidates.(Ecmp_hash.select ~seed:(Switch.id st.sw) pkt ~n)

(* ----------------------------- install ----------------------------- *)

let install ~flowlet_gap fabric =
  let leaf_of_host = Flowlet_route.leaf_of_host fabric in
  let states =
    Array.map
      (fun sw ->
        {
          sw;
          flowlets = Flowlet_route.table sw ~gap:flowlet_gap;
          health = Int_table.create ~capacity:8 ~dummy:no_health;
          decisions = 0;
        })
      (Fabric.switches fabric)
  in
  let t =
    {
      fabric;
      n_nodes = Topology.node_count (Fabric.topology fabric);
      states;
      leaf_of_host;
      cap = Int_table.create ~capacity:256 ~dummy:0.0;
      (* destination set: exactly the leaves that terminate hosts *)
      leaf_ids =
        Int_table.fold (fun _ leaf acc -> leaf :: acc) leaf_of_host []
        |> List.sort_uniq Int.compare;
      reweights = 0;
    }
  in
  Array.iter (fun st -> Switch.set_picker st.sw (picker t st)) states;
  reweight t;
  Fabric.set_reconverge_hook fabric (fun () -> reweight t);
  t

let flowlets_started t =
  Array.fold_left
    (fun acc st -> acc + Clove.Flowlet.flowlets_started st.flowlets)
    0 t.states

let decisions t = Array.fold_left (fun acc st -> acc + st.decisions) 0 t.states
let reweights t = t.reweights
let capacity_to t ~node ~dst_leaf = capacity t node dst_leaf
