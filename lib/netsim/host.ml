type t = {
  sched : Scheduler.t;
  id : int;
  addr : Addr.t;
  mutable uplink : Link.t option;
  mutable handler : (Packet.t -> unit) option;
  mutable tx_tap : (Packet.t -> unit) option;
  mutable rx_packets : int;
  mutable tx_packets : int;
}

let create ~sched ~id ~addr =
  {
    sched;
    id;
    addr;
    uplink = None;
    handler = None;
    tx_tap = None;
    rx_packets = 0;
    tx_packets = 0;
  }

let id t = t.id
let addr t = t.addr
let sched t = t.sched
let attach_uplink t link = t.uplink <- Some link

let uplink t =
  match t.uplink with
  | Some l -> l
  | None -> invalid_arg "Host.uplink: not attached"

let set_handler t f = t.handler <- Some f

let set_tx_tap t f = t.tx_tap <- Some f

let send t pkt =
  pkt.Packet.sent_at <- Scheduler.now t.sched;
  t.tx_packets <- t.tx_packets + 1;
  (match t.tx_tap with Some f -> f pkt | None -> ());
  Link.send (uplink t) pkt

let deliver t pkt =
  t.rx_packets <- t.rx_packets + 1;
  match t.handler with
  | Some f -> f pkt
  | None -> ()

let rx_packets t = t.rx_packets
let tx_packets t = t.tx_packets
