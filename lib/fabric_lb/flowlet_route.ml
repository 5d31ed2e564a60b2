let leaf_of_host fabric =
  let topo = Fabric.topology fabric in
  let tbl = Int_table.create ~capacity:64 ~dummy:(-1) in
  Array.iter
    (fun h ->
      let hid = Host.id h in
      match Topology.live_neighbors topo hid with
      | leaf :: _ -> Int_table.set tbl hid leaf
      | [] -> ())
    (Fabric.hosts fabric);
  tbl

let table sw ~gap = Clove.Flowlet.create ~sched:(Switch.sched sw) ~gap ~dummy:0

let flow_key pkt =
  match pkt.Packet.payload with
  | Packet.Tenant inner -> Packet.tcp_flow_key inner
  | Packet.Probe p ->
    (* probe flowlets, and so the digests, are keyed on this generic hash — lint: allow poly-compare *)
    Hashtbl.hash (p.Packet.probe_id, p.Packet.probe_port)
  | Packet.Probe_reply r -> Hashtbl.hash r.Packet.reply_probe_id

(* [Array.exists] without its per-packet closure *)
let rec is_candidate candidates port i =
  i < Array.length candidates
  && (Int.equal candidates.(i) port || is_candidate candidates port (i + 1))

let route tbl pkt ~candidates ~choose =
  let port =
    Clove.Flowlet.touch tbl ~key:(flow_key pkt) ~pick:(fun ~flowlet_id ->
        ignore flowlet_id;
        choose ())
  in
  if is_candidate candidates port 0 then port else choose ()
