type t = {
  tables : (int, int Clove.Flowlet.t) Hashtbl.t; (* switch id -> flowlet table *)
  rngs : (int, Rng.t) Hashtbl.t;
}

let flow_key_of_packet pkt =
  match pkt.Packet.payload with
  | Packet.Tenant inner -> Packet.tcp_flow_key inner
  | Packet.Probe p -> Hashtbl.hash (p.Packet.probe_id, p.Packet.probe_port)
  | Packet.Probe_reply r -> Hashtbl.hash r.Packet.reply_probe_id

let picker t sw ~in_port pkt ~candidates =
  ignore in_port;
  let n = Array.length candidates in
  if n = 1 then candidates.(0)
  else begin
    let lookup tbl =
      match Hashtbl.find_opt tbl (Switch.id sw) with
      | Some v -> v
      | None -> invalid_arg "Letflow.picker: switch not installed"
    in
    let table = lookup t.tables in
    let rng = lookup t.rngs in
    let key = flow_key_of_packet pkt in
    let port =
      Clove.Flowlet.touch table ~key ~pick:(fun ~flowlet_id ->
          ignore flowlet_id;
          candidates.(Rng.int rng n))
    in
    (* the cached choice may have been invalidated by a failure *)
    if Array.exists (fun c -> c = port) candidates then port
    else candidates.(Rng.int rng n)
  end

(* the LetFlow paper's switch implementation *)
let flowlet_gap = Sim_time.us 500

let install ~rng fabric =
  let t = { tables = Det.create 8; rngs = Det.create 8 } in
  Array.iter
    (fun sw ->
      (* each table reads its own switch's clock: identical to the fabric
         clock in serial builds, and shard-local under PDES *)
      Hashtbl.replace t.tables (Switch.id sw)
        (Clove.Flowlet.create ~sched:(Switch.sched sw) ~gap:flowlet_gap ~dummy:0);
      Hashtbl.replace t.rngs (Switch.id sw)
        (Rng.split_named rng ("switch:" ^ string_of_int (Switch.id sw)));
      Switch.set_picker sw (picker t))
    (Fabric.switches fabric);
  t
