(* degraded-link state installed by the fault layer: the serializer runs
   at a fraction of the nominal rate and packets are dropped on the wire
   with a seeded probability *)
type brownout = { capacity_frac : float; loss_prob : float; rng : Rng.t }

type t = {
  sched : Scheduler.t;
  rate_bps : float;
  prop_delay : Sim_time.span;
  queue : Pkt_queue.t;
  dre : Dre.t;
  label : string;
  mutable sink : (Packet.t -> unit) option;
  mutable busy : bool;
  mutable is_up : bool;
  mutable brownout : brownout option;
  mutable tx_bytes : int;
  mutable tx_packets : int;
  mutable down_drops : int;
  mutable brownout_drops : int;
  mutable overflow_drops : int;
  (* defunctionalized event state: serializer completions carry a slot
     index into [tx_slots] (usually one in flight, but a down/up flap can
     briefly overlap two); wire deliveries are strictly FIFO (constant
     [prop_delay]) so [prop] needs no per-event identity at all *)
  src : int; (* construction-order id ranking this link's events *)
  mutable k_txdone : int;
  mutable k_deliver : int;
  mutable tx_slots : Packet.t array; (* [Packet.placeholder] = free slot *)
  prop : Packet.t Ring.t;
  (* cross-shard (PDES) boundary mode: instead of scheduling the wire
     delivery locally, completed transmissions hand (deliver_time_ns,
     packet) to the partition's exchange buffer; the coordinator calls
     [inject] at the next window barrier, which re-enters the normal
     delivery path on the destination shard's scheduler *)
  mutable boundary : (born_ns:int -> time_ns:int -> Packet.t -> unit) option;
  mutable inject_sched : Scheduler.t option; (* destination shard *)
  mutable k_inject : int;
}

let set_sink t f = t.sink <- Some f

let deliver t pkt =
  match t.sink with
  | None -> invalid_arg (Printf.sprintf "Link %s: no sink installed" t.label)
  | Some sink -> sink pkt

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

(* slot for a packet being serialized; frees are marked with the
   placeholder.  Linear scan — the array holds at most a couple of
   entries (overlap only happens across a down/up flap). *)
let alloc_tx_slot t pkt =
  let n = Array.length t.tx_slots in
  let rec find i =
    if i = n then begin
      let slots = Array.make (2 * n) Packet.placeholder in
      Array.blit t.tx_slots 0 slots 0 n;
      t.tx_slots <- slots;
      n
    end
    else if t.tx_slots.(i) == Packet.placeholder then i
    else find (i + 1)
  in
  let i = find 0 in
  t.tx_slots.(i) <- pkt;
  i

(* Serializer completion at [tx] after start, then propagation for
   [prop_delay]; the serializer is free to start the next packet the
   moment the wire takes this one. *)
let rec on_txdone t slot =
  let pkt = t.tx_slots.(slot) in
  t.tx_slots.(slot) <- Packet.placeholder;
  (if not t.is_up then t.down_drops <- t.down_drops + 1
   else if brownout_lost t then t.brownout_drops <- t.brownout_drops + 1
   else
     match t.boundary with
     | Some push ->
       (* the txdone instant rides along as the delivery's insertion rank;
          exchange buffers carry absolute integer ns, the PDES barrier
          currency — lint: allow sema-time-boundary *)
       let born_ns = Sim_time.to_ns (Scheduler.now t.sched) in
       (* the delivery instant in the same integer ns — lint: allow sema-time-boundary *)
       push ~born_ns ~time_ns:(born_ns + Sim_time.span_ns t.prop_delay) pkt
     | None ->
       Ring.push t.prop pkt;
       Scheduler.schedule_tag t.sched ~after:t.prop_delay ~kind:t.k_deliver ~arg:0);
  start_tx t

and on_deliver t =
  let pkt = Ring.pop t.prop in
  if t.is_up then deliver t pkt else t.down_drops <- t.down_drops + 1

and start_tx t =
  if Pkt_queue.is_empty t.queue then t.busy <- false
  else begin
    let pkt = Pkt_queue.dequeue_unsafe t.queue in
    t.busy <- true;
    Dre.observe t.dre ~bytes_len:pkt.Packet.size;
    t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
    t.tx_packets <- t.tx_packets + 1;
    let tx = Sim_time.tx_time ~bytes_len:pkt.Packet.size ~rate_bps:(effective_rate t) in
    Scheduler.schedule_tag t.sched ~after:tx ~kind:t.k_txdone
      ~arg:(alloc_tx_slot t pkt)
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
      sink = None;
      busy = false;
      is_up = true;
      brownout = None;
      tx_bytes = 0;
      tx_packets = 0;
      down_drops = 0;
      brownout_drops = 0;
      overflow_drops = 0;
      k_txdone = -1;
      k_deliver = -1;
      tx_slots = Array.make 2 Packet.placeholder;
      prop = Ring.create ~capacity:8 ~dummy:Packet.placeholder ();
      boundary = None;
      inject_sched = None;
      k_inject = -1;
    }
  in
  (* one handler closure per link for its whole lifetime, not one per
     event: the steady-state transmit path allocates nothing *)
  t.k_txdone <- Scheduler.register_kind sched (fun slot -> on_txdone t slot);
  t.k_deliver <- Scheduler.register_kind sched (fun _ -> on_deliver t);
  (* all of this link's events rank under one id, so a wire delivery's
     tie-break does not depend on whether it was scheduled locally
     (k_deliver) or injected across a PDES boundary (k_inject) *)
  Scheduler.set_kind_src sched ~kind:t.k_txdone ~src:t.src;
  Scheduler.set_kind_src sched ~kind:t.k_deliver ~src:t.src;
  t

(* Boundary deliveries reuse the closure-free delivery machinery: the
   propagation ring stays FIFO (per-link deliver times are monotone —
   serializer completions are ordered and [prop_delay] is constant — and
   the exchange drains a window's buffer in generation order), and the
   injection kind dispatches [on_deliver] on the destination shard's
   scheduler, so is_up is re-checked at fire time exactly like the
   serial path. *)
let set_boundary t ~dest_sched ~push =
  t.boundary <- Some push;
  t.inject_sched <- Some dest_sched;
  if t.k_inject < 0 then begin
    t.k_inject <- Scheduler.register_kind dest_sched (fun _ -> on_deliver t);
    (* injected deliveries rank under the link's own id, same as the
       serial k_deliver path would *)
    Scheduler.set_kind_src dest_sched ~kind:t.k_inject ~src:t.src
  end

let inject t ~time_ns ~born_ns pkt =
  match t.inject_sched with
  | None -> invalid_arg (Printf.sprintf "Link %s: inject without boundary" t.label)
  | Some sched ->
    Ring.push t.prop pkt;
    (* lookahead guarantees time_ns is beyond the barrier, hence beyond
       the destination clock; born_ns (the remote txdone instant) becomes
       the event's tie-break rank so a same-nanosecond tie against a
       locally scheduled event resolves as the serial engine would *)
    Scheduler.inject_tag sched ~time_ns ~born_ns ~kind:t.k_inject ~arg:0

let send t pkt =
  if t.is_up then begin
    if Pkt_queue.enqueue t.queue pkt then begin
      if not t.busy then start_tx t
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
    t.busy <- false
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
  let serializing =
    Array.fold_left (fun n p -> if p == Packet.placeholder then n else n + 1) 0 t.tx_slots
  in
  Pkt_queue.length t.queue + serializing + Ring.length t.prop
