type metric = { mutable value : float; mutable stamp : Sim_time.t }

type leaf_state = {
  sw : Switch.t;
  lsched : Scheduler.t; (* the leaf's own clock: shard-local under PDES *)
  uplinks : int array; (* port ids; lbtag = index *)
  lbtag_of_port : int Int_table.t; (* absent = -1 *)
  cong_to : metric Int_table.t; (* [metric_key dst_leaf lbtag] *)
  cong_from : metric Int_table.t; (* [metric_key src_leaf lbtag] *)
  fb_ptr : int Int_table.t; (* dst_leaf -> next lbtag to piggyback *)
  flowlets : int Clove.Flowlet.t; (* decision = port id *)
  mutable decisions : int;
}

(* a congestion metric not refreshed for this long reads as zero, so
   stale congestion does not pin decisions *)
let metric_age = Sim_time.ms 10

type t = {
  leaves : leaf_state list;
  leaf_of_host : int Int_table.t; (* host node id -> leaf node id *)
}

(* a (leaf, lbtag) pair as one key: an LBTag indexes a leaf's uplinks *)
let metric_key leaf lbtag = (leaf lsl 16) lor lbtag

(* the dummy of every metric table: never mutated, never returned *)
let no_metric = { value = 0.0; stamp = Sim_time.zero }

(* metric stamps read and write the owning leaf's clock, so all state a
   leaf touches stays on its shard *)
let read_metric ls tbl key =
  let m = Int_table.find_default tbl key no_metric in
  if m == no_metric then 0.0
  else if Sim_time.(Scheduler.now ls.lsched >= add m.stamp metric_age) then 0.0
  else m.value

let write_metric ls tbl key v =
  let m = Int_table.find_default tbl key no_metric in
  if m == no_metric then
    Int_table.set tbl key { value = v; stamp = Scheduler.now ls.lsched }
  else begin
    m.value <- v;
    m.stamp <- Scheduler.now ls.lsched
  end

(* destination-leaf processing: learn from arriving metadata *)
let absorb ls pkt =
  match pkt.Packet.conga with
  | None -> ()
  | Some md ->
    if md.Packet.dst_leaf = Switch.id ls.sw then begin
      write_metric ls ls.cong_from
        (metric_key md.Packet.src_leaf md.Packet.lbtag)
        pkt.Packet.int_util;
      if md.Packet.fb_lbtag >= 0 then
        write_metric ls ls.cong_to
          (metric_key md.Packet.src_leaf md.Packet.fb_lbtag)
          md.Packet.fb_ce
    end

let pick_feedback ls ~dst_leaf =
  (* round-robin one CongFromLeaf[dst_leaf] entry onto the packet *)
  let n = Array.length ls.uplinks in
  if n = 0 then (-1, 0.0)
  else begin
    let ptr = Int_table.find_default ls.fb_ptr dst_leaf 0 in
    Int_table.set ls.fb_ptr dst_leaf ((ptr + 1) mod n);
    (ptr, read_metric ls ls.cong_from (metric_key dst_leaf ptr))
  end

let choose_uplink ls ~dst_leaf ~candidates =
  ls.decisions <- ls.decisions + 1;
  (* among live candidate ports, minimize max(local DRE, CongToLeaf) *)
  let best_port = ref candidates.(0) and best_cost = ref infinity in
  Array.iter
    (fun port ->
      let tag = Int_table.find_default ls.lbtag_of_port port (-1) in
      if tag >= 0 then begin
        let local = Link.utilization (Switch.port_link ls.sw port) in
        let remote = read_metric ls ls.cong_to (metric_key dst_leaf tag) in
        let cost = Float.max local remote in
        if cost < !best_cost then begin
          best_cost := cost;
          best_port := port
        end
      end)
    candidates;
  !best_port

let leaf_picker t ls _sw ~in_port pkt ~candidates =
  ignore in_port;
  absorb ls pkt;
  let dst = Packet.route_dst pkt in
  let dst_leaf = Int_table.find_default t.leaf_of_host (Addr.to_int dst) (-1) in
  if dst_leaf >= 0 && dst_leaf <> Switch.id ls.sw && Array.length candidates > 0 then begin
    let port =
      Flowlet_route.route ls.flowlets pkt ~candidates ~choose:(fun () ->
          choose_uplink ls ~dst_leaf ~candidates)
    in
    let lbtag = Int_table.find_default ls.lbtag_of_port port 0 in
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
  end
  (* local delivery (or unknown): default single-path/ECMP behaviour *)
  else if Array.length candidates = 1 then candidates.(0)
  else candidates.(Ecmp_hash.select ~seed:(Switch.id ls.sw) pkt ~n:(Array.length candidates))

let install ~flowlet_gap fabric =
  let topo = Fabric.topology fabric in
  let leaf_state sw =
    let uplinks =
      List.filter
        (fun p -> not (Topology.is_host topo (Switch.port_peer sw p)))
        (List.init (Switch.port_count sw) (fun i -> i))
      |> Array.of_list
    in
    let lbtag_of_port = Int_table.create ~capacity:8 ~dummy:(-1) in
    Array.iteri (fun tag port -> Int_table.set lbtag_of_port port tag) uplinks;
    {
      sw;
      lsched = Switch.sched sw;
      uplinks;
      lbtag_of_port;
      cong_to = Int_table.create ~capacity:32 ~dummy:no_metric;
      cong_from = Int_table.create ~capacity:32 ~dummy:no_metric;
      fb_ptr = Int_table.create ~capacity:8 ~dummy:0;
      flowlets = Flowlet_route.table sw ~gap:flowlet_gap;
      decisions = 0;
    }
  in
  let leaves =
    List.filter_map
      (fun sw ->
        match Switch.level sw with
        | Switch.Leaf -> Some (leaf_state sw)
        | Switch.Spine | Switch.Core_sw -> None)
      (Array.to_list (Fabric.switches fabric))
  in
  let t = { leaves; leaf_of_host = Flowlet_route.leaf_of_host fabric } in
  List.iter (fun ls -> Switch.set_picker ls.sw (leaf_picker t ls)) leaves;
  t

let flowlets_started t =
  List.fold_left
    (fun acc ls -> acc + Clove.Flowlet.flowlets_started ls.flowlets)
    0 t.leaves

let decisions t = List.fold_left (fun acc ls -> acc + ls.decisions) 0 t.leaves

let cong_to_leaf t ~leaf ~dst_leaf =
  match List.find_opt (fun ls -> Switch.id ls.sw = leaf) t.leaves with
  | None -> [||]
  | Some ls ->
    Array.mapi (fun tag _ -> read_metric ls ls.cong_to (metric_key dst_leaf tag)) ls.uplinks

