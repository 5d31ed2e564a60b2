type metric = { mutable value : float; mutable stamp : Sim_time.t }

type leaf_state = {
  sw : Switch.t;
  lsched : Scheduler.t; (* the leaf's own clock: shard-local under PDES *)
  uplinks : int array; (* port ids; lbtag = index *)
  lbtag_of_port : (int, int) Hashtbl.t;
  cong_to : (int * int, metric) Hashtbl.t; (* (dst_leaf, lbtag) *)
  cong_from : (int * int, metric) Hashtbl.t; (* (src_leaf, lbtag) *)
  fb_ptr : (int, int) Hashtbl.t; (* dst_leaf -> next lbtag to piggyback *)
  flowlets : int Clove.Flowlet.t; (* decision = port id *)
  mutable decisions : int;
}

(* a congestion metric not refreshed for this long reads as zero, so
   stale congestion does not pin decisions *)
let metric_age = Sim_time.ms 10

type t = {
  leaves : (int, leaf_state) Hashtbl.t; (* leaf node id *)
  leaf_of_host : (int, int) Hashtbl.t; (* host node id -> leaf node id *)
}

(* metric stamps read and write the owning leaf's clock, so all state a
   leaf touches stays on its shard *)
let read_metric ls tbl key =
  match Hashtbl.find_opt tbl key with
  | None -> 0.0
  | Some m ->
    if Sim_time.(Scheduler.now ls.lsched >= add m.stamp metric_age) then 0.0
    else m.value

let write_metric ls tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some m ->
    m.value <- v;
    m.stamp <- Scheduler.now ls.lsched
  | None -> Hashtbl.replace tbl key { value = v; stamp = Scheduler.now ls.lsched }

(* destination-leaf processing: learn from arriving metadata *)
let absorb ls pkt =
  match pkt.Packet.conga with
  | None -> ()
  | Some md ->
    if md.Packet.dst_leaf = Switch.id ls.sw then begin
      write_metric ls ls.cong_from (md.Packet.src_leaf, md.Packet.lbtag)
        pkt.Packet.int_util;
      if md.Packet.fb_lbtag >= 0 then
        write_metric ls ls.cong_to (md.Packet.src_leaf, md.Packet.fb_lbtag) md.Packet.fb_ce
    end

let pick_feedback ls ~dst_leaf =
  (* round-robin one CongFromLeaf[dst_leaf] entry onto the packet *)
  let n = Array.length ls.uplinks in
  if n = 0 then (-1, 0.0)
  else begin
    let ptr = match Hashtbl.find_opt ls.fb_ptr dst_leaf with Some p -> p | None -> 0 in
    Hashtbl.replace ls.fb_ptr dst_leaf ((ptr + 1) mod n);
    (ptr, read_metric ls ls.cong_from (dst_leaf, ptr))
  end

let choose_uplink ls ~dst_leaf ~candidates =
  ls.decisions <- ls.decisions + 1;
  (* among live candidate ports, minimize max(local DRE, CongToLeaf) *)
  let best_port = ref candidates.(0) and best_cost = ref infinity in
  Array.iter
    (fun port ->
      match Hashtbl.find_opt ls.lbtag_of_port port with
      | None -> ()
      | Some tag ->
        let local = Link.utilization (Switch.port_link ls.sw port) in
        let remote = read_metric ls ls.cong_to (dst_leaf, tag) in
        let cost = Float.max local remote in
        if cost < !best_cost then begin
          best_cost := cost;
          best_port := port
        end)
    candidates;
  !best_port

let leaf_picker t ls _sw ~in_port pkt ~candidates =
  ignore in_port;
  absorb ls pkt;
  let dst = Packet.route_dst pkt in
  match Hashtbl.find_opt t.leaf_of_host (Addr.to_int dst) with
  | Some dst_leaf when dst_leaf <> Switch.id ls.sw && Array.length candidates > 0 ->
    let port =
      Flowlet_route.route ls.flowlets pkt ~candidates ~choose:(fun () ->
          choose_uplink ls ~dst_leaf ~candidates)
    in
    let lbtag = match Hashtbl.find_opt ls.lbtag_of_port port with Some i -> i | None -> 0 in
    let fb_lbtag, fb_ce = pick_feedback ls ~dst_leaf in
    pkt.Packet.conga <-
      Some
        {
          Packet.src_leaf = Switch.id ls.sw;
          dst_leaf;
          lbtag;
          fb_lbtag;
          fb_ce;
        };
    (* CE starts here: every switch from this egress on maxes its link
       utilization into the INT stamp *)
    pkt.Packet.int_enabled <- true;
    pkt.Packet.int_util <- 0.0;
    port
  | _ ->
    (* local delivery (or unknown): default single-path/ECMP behaviour *)
    if Array.length candidates = 1 then candidates.(0)
    else candidates.(Ecmp_hash.select ~seed:(Switch.id ls.sw) pkt ~n:(Array.length candidates))

let install ?(flowlet_gap = Sim_time.us 500) fabric =
  let topo = Fabric.topology fabric in
  let t =
    { leaves = Hashtbl.create 8; leaf_of_host = Flowlet_route.leaf_of_host fabric }
  in
  Array.iter
    (fun sw ->
      match Switch.level sw with
      | Switch.Spine | Switch.Core_sw -> ()
      | Switch.Leaf ->
        let uplinks =
          List.filter
            (fun p -> not (Topology.is_host topo (Switch.port_peer sw p)))
            (List.init (Switch.port_count sw) (fun i -> i))
          |> Array.of_list
        in
        let lbtag_of_port = Hashtbl.create 8 in
        Array.iteri (fun tag port -> Hashtbl.replace lbtag_of_port port tag) uplinks;
        let ls =
          {
            sw;
            lsched = Switch.sched sw;
            uplinks;
            lbtag_of_port;
            cong_to = Hashtbl.create 32;
            cong_from = Hashtbl.create 32;
            fb_ptr = Hashtbl.create 8;
            flowlets = Flowlet_route.table sw ~gap:flowlet_gap;
            decisions = 0;
          }
        in
        Hashtbl.replace t.leaves (Switch.id sw) ls;
        Switch.set_picker sw (leaf_picker t ls))
    (Fabric.switches fabric);
  t

let flowlets_started t =
  Hashtbl.fold (fun _ ls acc -> acc + Clove.Flowlet.flowlets_started ls.flowlets) t.leaves 0

let decisions t =
  Hashtbl.fold (fun _ ls acc -> acc + ls.decisions) t.leaves 0

let cong_to_leaf t ~leaf ~dst_leaf =
  match Hashtbl.find_opt t.leaves leaf with
  | None -> [||]
  | Some ls ->
    Array.mapi (fun tag _ -> read_metric ls ls.cong_to (dst_leaf, tag)) ls.uplinks

