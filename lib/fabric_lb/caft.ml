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
  health : (int, port_health) Hashtbl.t; (* port -> loss hold-down *)
  mutable decisions : int;
}

(* the congestion floor that keeps an idle narrow path from always
   beating a busy wide one *)
let eps = 0.05
let holddown = Sim_time.ms 50

type t = {
  fabric : Fabric.t;
  states : (int, state) Hashtbl.t; (* switch node id *)
  leaf_of_host : (int, int) Hashtbl.t; (* host node id -> leaf node id *)
  cap : (int * int, float) Hashtbl.t; (* (node, dst_leaf) -> bps *)
  mutable leaf_ids : int list; (* destination leaves, sorted *)
  mutable reweights : int;
}

(* ---------------------------- reweighting -------------------------- *)

(* effective capacity of [node]'s live subtree toward [dst_leaf]:
   processed in decreasing-distance order seeded at the leaf, so every
   dist-decreasing neighbor is already final when a node is summed *)
let reweight t =
  let topo = Fabric.topology t.fabric in
  Hashtbl.reset t.cap;
  List.iter
    (fun dst_leaf ->
      let dist = Routing.distances ~mode:(Fabric.mode t.fabric) topo ~dst:dst_leaf in
      let by_dist = ref [] in
      Det.iter_sorted ~compare:Int.compare
        (fun u du ->
          if u <> dst_leaf && not (Topology.is_host topo u) then
            by_dist := (du, u) :: !by_dist)
        dist;
      let ordered =
        List.sort
          (fun (d1, u1) (d2, u2) ->
            match Int.compare d1 d2 with 0 -> Int.compare u1 u2 | c -> c)
          !by_dist
      in
      Hashtbl.replace t.cap (dst_leaf, dst_leaf) infinity;
      List.iter
        (fun (du, u) ->
          let c =
            List.fold_left
              (fun acc (e : Topology.edge) ->
                if e.Topology.failed then acc
                else
                  let v = if e.Topology.a = u then e.Topology.b else e.Topology.a in
                  match Hashtbl.find_opt dist v with
                  | Some dv when dv = du - 1 -> (
                    match Hashtbl.find_opt t.cap (v, dst_leaf) with
                    | Some cv -> acc +. Float.min e.Topology.rate_bps cv
                    | None -> acc)
                  | _ -> acc)
              0.0 (Topology.edges_of topo u)
          in
          if c > 0.0 then Hashtbl.replace t.cap (u, dst_leaf) c)
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
  match Hashtbl.find_opt st.health port with
  | None ->
    Hashtbl.replace st.health port
      { seen_drops = drops; bad_until = Sim_time.zero };
    false
  | Some h ->
    let now = Scheduler.now (Switch.sched st.sw) in
    if drops > h.seen_drops then begin
      h.seen_drops <- drops;
      h.bad_until <- Sim_time.add now holddown
    end;
    Sim_time.( < ) now h.bad_until

let choose t st ~dst_leaf ~candidates =
  st.decisions <- st.decisions + 1;
  let best = ref candidates.(0) and best_cost = ref infinity in
  Array.iter
    (fun port ->
      let peer = Switch.port_peer st.sw port in
      let w =
        match Hashtbl.find_opt t.cap (peer, dst_leaf) with
        | Some c -> Float.min (Link.rate_bps (Switch.port_link st.sw port)) c
        | None -> 0.0
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
    match Hashtbl.find_opt t.leaf_of_host (Addr.to_int dst) with
    | Some dst_leaf ->
      Flowlet_route.route st.flowlets pkt ~candidates ~choose:(fun () ->
          choose t st ~dst_leaf ~candidates)
    | None ->
      candidates.(Ecmp_hash.select ~seed:(Switch.id st.sw) pkt ~n)

(* ----------------------------- install ----------------------------- *)

let install ?(flowlet_gap = Sim_time.us 500) fabric =
  let t =
    {
      fabric;
      states = Det.create (Fabric.mode fabric) 16;
      leaf_of_host = Flowlet_route.leaf_of_host fabric;
      cap = Det.create (Fabric.mode fabric) 256;
      leaf_ids = [];
      reweights = 0;
    }
  in
  (* destination set: exactly the leaves that terminate hosts *)
  let leaves = Hashtbl.create 16 in
  Det.iter_sorted ~compare:Int.compare
    (fun _ leaf -> Hashtbl.replace leaves leaf ())
    t.leaf_of_host;
  t.leaf_ids <-
    List.sort Int.compare (Hashtbl.fold (fun l () acc -> l :: acc) leaves []);
  Array.iter
    (fun sw ->
      let st =
        {
          sw;
          flowlets = Flowlet_route.table sw ~gap:flowlet_gap;
          health = Det.create (Fabric.mode fabric) 8;
          decisions = 0;
        }
      in
      Hashtbl.replace t.states (Switch.id sw) st;
      Switch.set_picker sw (picker t st))
    (Fabric.switches fabric);
  reweight t;
  Fabric.set_reconverge_hook fabric (fun () -> reweight t);
  t

let flowlets_started t =
  Hashtbl.fold
    (fun _ st acc -> acc + Clove.Flowlet.flowlets_started st.flowlets)
    t.states 0

let decisions t = Hashtbl.fold (fun _ st acc -> acc + st.decisions) t.states 0
let reweights t = t.reweights

let capacity_to t ~node ~dst_leaf =
  match Hashtbl.find_opt t.cap (node, dst_leaf) with Some c -> c | None -> 0.0
