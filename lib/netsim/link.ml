(* degraded-link state installed by the fault layer: the serializer runs
   at a fraction of the nominal rate and packets are dropped on the wire
   with a seeded probability *)
type brownout = { capacity_frac : float; loss_prob : float; rng : Rng.t }

(* where the wire delivers: a host at the wire-delivery instant D, the
   event ranked (txdone, link); a switch's ingress lane [latency_ns]
   after D, its pipeline folded into the event, ranked (D, lane) *)
type sink =
  | Host_sink of (Packet.t -> unit)
  | Switch_sink of { latency_ns : int; lane : int; receive : Packet.t -> unit }

(* a [set_up] while deliveries to a switch were pending: its instant and
   the state before it *)
type flip = { at_ns : int; was_up : bool }

type t = {
  sched : Scheduler.t;
  rate_bps : float;
  prop_delay : Sim_time.span;
  queue : Pkt_queue.t;
  dre : Dre.t;
  label : string;
  mutable sink : sink;
  mutable serializing : Packet.t; (* [Packet.placeholder] when idle *)
  mutable corrupted : bool; (* the link failed while serializing it *)
  mutable is_up : bool;
  mutable flips : flip list; (* oldest first *)
  mutable brownout : brownout option;
  mutable tx_bytes : int;
  mutable tx_packets : int;
  mutable down_drops : int;
  mutable brownout_drops : int;
  mutable overflow_drops : int;
  (* defunctionalized event state: one frame serializes at a time, in
     [serializing]; deliveries are strictly FIFO (constant delays) so
     [prop] needs no per-event identity at all *)
  src : int; (* construction-order id ranking this link's events *)
  mutable k_txdone : int;
  prop : Packet.t Ring.t;
  (* deliveries fire as [k_deliver] on [rx_sched]: [sched], or across a
     PDES boundary the destination shard's, where [inject] schedules
     what [boundary] (the partition's exchange buffer) took *)
  mutable rx_sched : Scheduler.t;
  mutable k_deliver : int;
  mutable boundary : (born_ns:int -> time_ns:int -> Packet.t -> unit) option;
}

(* every delivery ranks under one id, on whichever scheduler it fires *)
let rank_deliveries t =
  let src = match t.sink with Switch_sink s -> s.lane | Host_sink _ -> t.src in
  Scheduler.set_kind_src t.rx_sched ~kind:t.k_deliver ~src

let set_sink t f =
  t.sink <- Host_sink f;
  rank_deliveries t

let set_switch_sink t ~latency ~src f =
  (* added to integer-ns delivery instants — lint: allow sema-time-boundary *)
  t.sink <- Switch_sink { latency_ns = Sim_time.span_ns latency; lane = src; receive = f };
  rank_deliveries t

let effective_rate t =
  match t.brownout with
  | None -> t.rate_bps
  | Some b -> t.rate_bps *. b.capacity_frac

(* a brownout corrupts the packet on the wire with the configured
   probability; the stream is only consumed while a brownout is installed,
   so fault-free runs draw nothing *)
let brownout_lost t =
  match t.brownout with
  | None -> false
  | Some b -> b.loss_prob > 0.0 && Rng.float b.rng 1.0 < b.loss_prob

(* flips at or before a delivery instant matter to no later delivery *)
let rec flips_after ns = function
  | f :: rest when f.at_ns <= ns -> flips_after ns rest
  | flips -> flips

(* whether the link was up at instant [ns]: the state before the first
   flip after it, else the current one *)
let up_at t ns =
  match t.flips with
  | [] -> t.is_up
  | flips -> (
    t.flips <- flips_after ns flips;
    match t.flips with [] -> t.is_up | f :: _ -> f.was_up)

let on_deliver t =
  let pkt = Ring.pop t.prop in
  match t.sink with
  | Host_sink f -> if t.is_up then f pkt else t.down_drops <- t.down_drops + 1
  | Switch_sink s ->
    (* lost iff down at the wire-delivery instant, a pipeline latency ago — lint: allow sema-time-boundary *)
    if up_at t (Sim_time.to_ns (Scheduler.now t.rx_sched) - s.latency_ns) then s.receive pkt
    else t.down_drops <- t.down_drops + 1

let schedule_delivery t ~born_ns ~time_ns pkt =
  Ring.push t.prop pkt;
  Scheduler.inject_tag t.rx_sched ~time_ns ~born_ns ~kind:t.k_deliver ~arg:0

let launch t ~born_ns ~time_ns pkt =
  match t.boundary with
  | Some push -> push ~born_ns ~time_ns pkt
  | None -> schedule_delivery t ~born_ns ~time_ns pkt

(* Serializer completion at [tx] after start, then propagation for
   [prop_delay]; the serializer is free to start the next packet the
   moment the wire takes this one.  A frame the link failed under is
   lost, even if the link is back up. *)
let rec on_txdone t =
  let pkt = t.serializing in
  t.serializing <- Packet.placeholder;
  (if t.corrupted then begin
     t.corrupted <- false;
     t.down_drops <- t.down_drops + 1
   end
   else if brownout_lost t then t.brownout_drops <- t.brownout_drops + 1
   else
     (* event ranks and exchange buffers carry absolute integer ns, the
        PDES barrier currency — lint: allow sema-time-boundary *)
     let txdone_ns = Sim_time.to_ns (Scheduler.now t.sched) in
     (* the wire-delivery instant D — lint: allow sema-time-boundary *)
     let deliver_ns = txdone_ns + Sim_time.span_ns t.prop_delay in
     match t.sink with
     | Host_sink _ -> launch t ~born_ns:txdone_ns ~time_ns:deliver_ns pkt
     | Switch_sink s -> launch t ~born_ns:deliver_ns ~time_ns:(deliver_ns + s.latency_ns) pkt);
  start_tx t

and start_tx t =
  if not (Pkt_queue.is_empty t.queue) then begin
    let pkt = Pkt_queue.dequeue_unsafe t.queue in
    t.serializing <- pkt;
    Dre.observe t.dre ~bytes_len:pkt.Packet.size;
    t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
    t.tx_packets <- t.tx_packets + 1;
    let tx = Sim_time.tx_time ~bytes_len:pkt.Packet.size ~rate_bps:(effective_rate t) in
    Scheduler.schedule_tag t.sched ~after:tx ~kind:t.k_txdone ~arg:0
  end

let create ~sched ~rate_bps ~prop_delay ?queue ?(label = "link") () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  let queue = match queue with Some q -> q | None -> Pkt_queue.create () in
  let t =
    {
      sched;
      rate_bps;
      prop_delay;
      queue;
      dre = Dre.create ~rate_bps sched;
      label;
      src = Scheduler.fresh_src ();
      sink = Host_sink (fun _ -> invalid_arg ("Link " ^ label ^ ": no sink installed"));
      serializing = Packet.placeholder;
      corrupted = false;
      is_up = true;
      flips = [];
      brownout = None;
      tx_bytes = 0;
      tx_packets = 0;
      down_drops = 0;
      brownout_drops = 0;
      overflow_drops = 0;
      k_txdone = -1;
      prop = Ring.create ~capacity:8 ~dummy:Packet.placeholder ();
      rx_sched = sched;
      k_deliver = -1;
      boundary = None;
    }
  in
  (* one handler closure per link for its whole lifetime, not one per
     event: the steady-state transmit path allocates nothing *)
  t.k_txdone <- Scheduler.register_kind sched (fun _ -> on_txdone t);
  t.k_deliver <- Scheduler.register_kind sched (fun _ -> on_deliver t);
  Scheduler.set_kind_src sched ~kind:t.k_txdone ~src:t.src;
  rank_deliveries t;
  t

(* the propagation ring stays FIFO across a boundary: the exchange
   drains a window's buffer in generation order *)
let set_boundary t ~dest_sched ~push =
  t.boundary <- Some push;
  if t.rx_sched != dest_sched then begin
    t.rx_sched <- dest_sched;
    t.k_deliver <- Scheduler.register_kind dest_sched (fun _ -> on_deliver t);
    rank_deliveries t
  end

let inject t ~time_ns ~born_ns pkt =
  match t.boundary with
  | None -> invalid_arg (Printf.sprintf "Link %s: inject without boundary" t.label)
  | Some _ -> schedule_delivery t ~born_ns ~time_ns pkt

let send t pkt =
  if t.is_up then begin
    if Pkt_queue.enqueue t.queue pkt then begin
      if t.serializing == Packet.placeholder then start_tx t
    end
    else t.overflow_drops <- t.overflow_drops + 1
  end
  else begin
    (* a dead egress accounts offered bytes in the queue stats too, same
       as the [set_up false] drain, so switch-down (which fails every
       incident link) balances byte conservation at core tier fan-outs *)
    t.down_drops <- t.down_drops + 1;
    Pkt_queue.count_drop t.queue pkt
  end

let up t = t.is_up

let set_up t v =
  (match t.sink with
   | Switch_sink _ when Ring.length t.prop > 0 ->
     (* for [up_at]; with deliveries pending, [rx_sched] is at this
        instant, under PDES too: faults run at a barrier every shard has
        reached — lint: allow sema-time-boundary *)
     let at_ns = Sim_time.to_ns (Scheduler.now t.rx_sched) in
     t.flips <- t.flips @ [ { at_ns; was_up = t.is_up } ]
   | Host_sink _ | Switch_sink _ -> ());
  t.is_up <- v;
  if not v then begin
    (* drain the queue: a failed link loses its in-flight packets, and the
       loss is accounted in both the link and queue statistics so
       packet-conservation audits balance under mid-run failures *)
    let rec drain () =
      match Pkt_queue.dequeue t.queue with
      | None -> ()
      | Some pkt ->
        t.down_drops <- t.down_drops + 1;
        Pkt_queue.count_drop t.queue pkt;
        drain ()
    in
    drain ();
    (* the frame on the serializer is lost too, when it completes: the
       serializer stays busy until then *)
    if t.serializing != Packet.placeholder then t.corrupted <- true
  end

let set_brownout t ~capacity_frac ~loss_prob ~rng =
  if capacity_frac <= 0.0 || capacity_frac > 1.0 then
    invalid_arg "Link.set_brownout: capacity_frac must be in (0, 1]";
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg "Link.set_brownout: loss_prob must be in [0, 1)";
  t.brownout <- Some { capacity_frac; loss_prob; rng }

let clear_brownout t = t.brownout <- None

let utilization t = Dre.utilization t.dre
let queue t = t.queue
let rate_bps t = t.rate_bps
let label t = t.label
let tx_bytes t = t.tx_bytes
let tx_packets t = t.tx_packets
let down_drops t = t.down_drops
let brownout_drops t = t.brownout_drops
let overflow_drops t = t.overflow_drops

let in_flight t =
  let serializing = if t.serializing == Packet.placeholder then 0 else 1 in
  Pkt_queue.length t.queue + serializing + Ring.length t.prop
