type level = Leaf | Spine | Core_sw

type port = { link : Link.t; peer : int; parallel_index : int }

type t = {
  sched : Scheduler.t;
  id : int;
  level : level;
  ecmp_seed : int;
  latency : Sim_time.span;
  index_preserving : bool;
  int_capable : bool;
  mutable ports : port array;
  mutable nports : int;
  unwired : port;  (* placeholder for unpopulated port slots *)
  routes : int array Int_table.t; (* keyed by [Addr.to_int] *)
  (* defunctionalized pipeline, one lane per ingress port: forwards on a
     port fire in FIFO order (constant [latency]), so the pending packet
     is always the oldest in the port's ring.  Per-port dispatch kinds
     give every lane its own component id: two packets crossing the
     switch in the same nanosecond rank by ingress port — a fixed
     arbitration order — rather than by insertion race, which keeps the
     tie shard-invariant and perturbation-stable *)
  mutable k_forwards : int array;
  mutable pipes : Packet.t Ring.t array;
  mutable picker : picker option;
  mutable rx_hook : (t -> in_port:int -> Packet.t -> unit) option;
  mutable tx_hook : (t -> port:int -> Packet.t -> unit) option;
  mutable rx_packets : int;
  mutable routing_drops : int;
  mutable ttl_drops : int;
}

and picker = t -> in_port:int -> Packet.t -> candidates:int array -> int

let id t = t.id
let level t = t.level
let sched t = t.sched

let port_count t = t.nports

let check_port t p =
  if p < 0 || p >= t.nports then invalid_arg "Switch: bad port id"

let port_link t p =
  check_port t p;
  t.ports.(p).link

let port_peer t p =
  check_port t p;
  t.ports.(p).peer

let ports_to_peer t ~peer =
  let acc = ref [] in
  for p = t.nports - 1 downto 0 do
    if t.ports.(p).peer = peer then acc := p :: !acc
  done;
  !acc

let set_routes t addr ports = Int_table.set t.routes (Addr.to_int addr) ports
let routes t addr = Int_table.find_opt t.routes (Addr.to_int addr)
let clear_routes t = Int_table.clear t.routes
let set_picker t p = t.picker <- Some p
let set_rx_hook t h = t.rx_hook <- Some h
let set_tx_hook t h = t.tx_hook <- Some h
let rx_packets t = t.rx_packets
let routing_drops t = t.routing_drops
let ttl_drops t = t.ttl_drops

let all_same_peer t candidates =
  let n = Array.length candidates in
  let peer = t.ports.(candidates.(0)).peer in
  let rec go i = i >= n || (t.ports.(candidates.(i)).peer = peer && go (i + 1)) in
  go 1

let default_pick t ~in_port pkt ~candidates =
  let n = Array.length candidates in
  if n = 1 then candidates.(0)
  else if
    t.index_preserving && in_port >= 0 && t.level = Spine
    && all_same_peer t candidates
  then
    (* the testbed's deterministic spine wiring: traffic received on the
       i-th parallel link from a leaf leaves on the i-th parallel link of
       the bundle toward the next leaf, making leaf-to-leaf paths disjoint.
       Only applies to parallel bundles (all candidates to one peer) — on
       topologies like fat-trees the candidates are distinct switches and
       normal ECMP hashing applies. *)
    candidates.(t.ports.(in_port).parallel_index mod n)
  else candidates.(Ecmp_hash.select ~seed:t.ecmp_seed pkt ~n)

let answer_ttl_expired t ~in_port pkt =
  match pkt.Packet.payload with
  | Packet.Probe p ->
    let reply =
      Packet.make ~size:64
        (Packet.Probe_reply
           {
             Packet.reply_to = p.Packet.probe_src;
             reply_probe_id = p.Packet.probe_id;
             reply_port = p.Packet.probe_port;
             reply_ttl = 0;
             reply_hop = Some { Packet.hop_node = t.id; hop_port = in_port };
           })
    in
    Some reply
  | Packet.Tenant _ | Packet.Probe_reply _ -> None

let forward t ~in_port pkt =
  let dst = Packet.route_dst pkt in
  (* allocation-free lookup: the shared [||] dummy doubles as "no route" *)
  match Int_table.find_default t.routes (Addr.to_int dst) [||] with
  | [||] ->
    t.routing_drops <- t.routing_drops + 1;
    if !Analysis.Audit.on then Analysis.Audit.note_dropped ~reason:"no-route"
  | candidates ->
    let port =
      match t.picker with
      | Some pick -> pick t ~in_port pkt ~candidates
      | None -> default_pick t ~in_port pkt ~candidates
    in
    (match t.tx_hook with Some h -> h t ~port pkt | None -> ());
    let link = t.ports.(port).link in
    if t.int_capable && pkt.Packet.int_enabled then
      pkt.Packet.int_util <- Float.max pkt.Packet.int_util (Link.utilization link);
    Link.send link pkt

let receive t ~in_port pkt =
  t.rx_packets <- t.rx_packets + 1;
  (match t.rx_hook with Some h -> h t ~in_port pkt | None -> ());
  pkt.Packet.ttl <- pkt.Packet.ttl - 1;
  if pkt.Packet.ttl <= 0 then begin
    t.ttl_drops <- t.ttl_drops + 1;
    if !Analysis.Audit.on then Analysis.Audit.note_dropped ~reason:"ttl-expired";
    match answer_ttl_expired t ~in_port pkt with
    | None -> ()
    | Some reply ->
      (* the reply is a switch-originated packet: a fresh injection as far
         as packet conservation is concerned *)
      if !Analysis.Audit.on then Analysis.Audit.note_injected ();
      let (_ : Scheduler.handle) =
        Scheduler.schedule t.sched ~after:t.latency (fun () ->
            forward t ~in_port:(-1) reply)
      in
      ()
  end
  else begin
    Ring.push t.pipes.(in_port) pkt;
    Scheduler.schedule_tag t.sched ~after:t.latency ~kind:t.k_forwards.(in_port)
      ~arg:0
  end

(* Ports are wired after [create], in fabric construction order; each
   registers its pipeline lane's dispatch kind then, so lane ids follow
   wiring order at any shard count. *)
let add_port t ~link ~peer ~parallel_index =
  if t.nports = Array.length t.ports then begin
    let n = t.nports in
    let ports = Array.make (2 * n) t.unwired in
    let kinds = Array.make (2 * n) (-1) in
    let pipes =
      Array.init (2 * n) (fun i ->
          if i < n then t.pipes.(i)
          else Ring.create ~capacity:16 ~dummy:Packet.placeholder ())
    in
    Array.blit t.ports 0 ports 0 n;
    Array.blit t.k_forwards 0 kinds 0 n;
    t.ports <- ports;
    t.k_forwards <- kinds;
    t.pipes <- pipes
  end;
  let p = t.nports in
  t.ports.(p) <- { link; peer; parallel_index };
  t.k_forwards.(p) <-
    Scheduler.register_kind t.sched (fun _ ->
        forward t ~in_port:p (Ring.pop t.pipes.(p)));
  t.nports <- p + 1;
  p

let create ~sched ~id ~level ~ecmp_seed ?(latency = Sim_time.ns 250)
    ?(index_preserving = false) ?(int_capable = false) () =
  (* a real (never-transmitting) port fills empty slots of the port
     array, replacing the seed's GC-unsafe [Obj.magic 0] sentinel *)
  let unwired =
    {
      link =
        Link.create ~sched ~rate_bps:1.0 ~prop_delay:Sim_time.zero_span
          ~label:"unwired" ();
      peer = -1;
      parallel_index = 0;
    }
  in
  let t =
    {
      sched;
      id;
      level;
      ecmp_seed;
      latency;
      index_preserving;
      int_capable;
      unwired;
      ports = Array.make 8 unwired;
      nports = 0;
      routes = Int_table.create ~capacity:64 ~dummy:[||] ();
      picker = None;
      rx_hook = None;
      tx_hook = None;
      rx_packets = 0;
      routing_drops = 0;
      ttl_drops = 0;
      k_forwards = Array.make 8 (-1);
      pipes =
        Array.init 8 (fun _ ->
            Ring.create ~capacity:16 ~dummy:Packet.placeholder ());
    }
  in
  t
