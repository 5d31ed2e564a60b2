type level = Leaf | Spine | Core_sw

(* [lane] ranks the events of packets arriving on this port: two
   packets crossing the switch in the same nanosecond rank by ingress
   port — a fixed arbitration order — rather than by insertion race,
   which keeps the tie shard-invariant and perturbation-stable *)
type port = { link : Link.t; peer : int; parallel_index : int; lane : int }

type t = {
  sched : Scheduler.t;
  id : int;
  level : level;
  ecmp_seed : int;
  latency : Sim_time.span;
  mutable ports : port array;
  mutable nports : int;
  unwired : port;  (* placeholder for unpopulated port slots *)
  routes : int array Int_table.t; (* keyed by [Addr.to_int] *)
  mutable picker : picker option;
  mutable rx_packets : int;
  mutable routing_drops : int;
  mutable ttl_drops : int;
  mutable ttl_replies : int;
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
let rx_packets t = t.rx_packets
let routing_drops t = t.routing_drops
let ttl_drops t = t.ttl_drops
let ttl_replies t = t.ttl_replies

(* whether candidates [i..] all lead to [peer] *)
let rec same_peer_from t candidates ~peer i =
  i >= Array.length candidates
  || (t.ports.(candidates.(i)).peer = peer && same_peer_from t candidates ~peer (i + 1))

let all_same_peer t candidates =
  same_peer_from t candidates ~peer:t.ports.(candidates.(0)).peer 1

let default_pick t ~in_port pkt ~candidates =
  let n = Array.length candidates in
  if n = 1 then candidates.(0)
  else
    match t.level with
    | Spine when in_port >= 0 && all_same_peer t candidates ->
      (* the testbed's deterministic spine wiring: traffic received on the
         i-th parallel link from a leaf leaves on the i-th parallel link of
         the bundle toward the next leaf, making leaf-to-leaf paths disjoint.
         Only applies to parallel bundles (all candidates to one peer) — on
         topologies like fat-trees the candidates are distinct switches and
         normal ECMP hashing applies. *)
      candidates.(t.ports.(in_port).parallel_index mod n)
    | Spine | Leaf | Core_sw -> candidates.(Ecmp_hash.select ~seed:t.ecmp_seed pkt ~n)

let forward t ~in_port pkt =
  let dst = Packet.route_dst pkt in
  (* allocation-free lookup: the shared [||] dummy doubles as "no route" *)
  match Int_table.find_default t.routes (Addr.to_int dst) [||] with
  | [||] -> t.routing_drops <- t.routing_drops + 1
  | candidates ->
    let port =
      match t.picker with
      | Some pick -> pick t ~in_port pkt ~candidates
      | None -> default_pick t ~in_port pkt ~candidates
    in
    let link = t.ports.(port).link in
    if pkt.Packet.int_enabled then
      pkt.Packet.int_util <- Float.max pkt.Packet.int_util (Link.utilization link);
    Link.send link pkt

(* the reply is a switch-originated packet: it enters the network, as
   far as packet conservation is concerned, as it is forwarded *)
let answer_ttl_expired t ~in_port pkt =
  match pkt.Packet.payload with
  | Packet.Probe p ->
    t.ttl_replies <- t.ttl_replies + 1;
    forward t ~in_port:(-1)
      (Packet.make ~size:64
         (Packet.Probe_reply
            {
              Packet.reply_to = p.Packet.probe_src;
              reply_probe_id = p.Packet.probe_id;
              reply_port = p.Packet.probe_port;
              reply_ttl = 0;
              reply_hop = Some { Packet.hop_node = t.id; hop_port = in_port };
            }))
  | Packet.Tenant _ | Packet.Probe_reply _ -> ()

let receive t ~in_port pkt =
  t.rx_packets <- t.rx_packets + 1;
  pkt.Packet.ttl <- pkt.Packet.ttl - 1;
  if pkt.Packet.ttl > 0 then forward t ~in_port pkt
  else begin
    t.ttl_drops <- t.ttl_drops + 1;
    answer_ttl_expired t ~in_port pkt
  end

(* Ports are wired after [create], in fabric construction order; each
   draws its ingress lane's rank then, so lane ranks follow wiring order
   at any shard count. *)
let add_port t ~link ~peer ~parallel_index =
  if t.nports = Array.length t.ports then begin
    let n = t.nports in
    let ports = Array.make (2 * n) t.unwired in
    Array.blit t.ports 0 ports 0 n;
    t.ports <- ports
  end;
  let p = t.nports in
  t.ports.(p) <- { link; peer; parallel_index; lane = Scheduler.fresh_src () };
  t.nports <- p + 1;
  p

let wire_ingress t ~in_port link =
  check_port t in_port;
  Link.set_switch_sink link ~latency:t.latency ~src:t.ports.(in_port).lane (fun pkt ->
      receive t ~in_port pkt)

let create ~sched ~id ~level ~ecmp_seed ?(latency = Sim_time.ns 250) () =
  (* a real (never-transmitting) port fills empty slots of the port
     array: a typed, GC-safe sentinel *)
  let unwired =
    {
      link =
        Link.create ~sched ~rate_bps:1.0 ~prop_delay:Sim_time.zero_span
          ~label:"unwired" ();
      peer = -1;
      parallel_index = 0;
      lane = 0;
    }
  in
  {
    sched;
    id;
    level;
    ecmp_seed;
    latency;
    unwired;
    ports = Array.make 8 unwired;
    nports = 0;
    routes = Int_table.create ~capacity:64 ~dummy:[||];
    picker = None;
    rx_packets = 0;
    routing_drops = 0;
    ttl_drops = 0;
    ttl_replies = 0;
  }
