(* A FIFO link at a fixed rate knows when each frame departs, so it
   keeps no transmit-done event.  A frame that starts serializing at S
   departs at T = S + tx, at the rate in force at S, and the next frame
   starts at T.  Its delivery is scheduled as it starts, keyed as if an
   event at T had scheduled it: (D, T, link) into a host, (D + latency,
   D, lane) into a switch, D = T + prop.  The departure itself is
   replayed lazily by [catch_up], in this order: the verdict (a frame
   the link failed under, or a brownout's wire loss, drawn in FIFO
   order), then the next frame's start, its DRE observation at its
   start instant, the counters and its delivery's scheduling.  The
   result is event for event that of a serializer with a transmit-done
   event per frame (test_netsim's reference model).  A frame lost on
   the wire keeps its delivery event, which then does nothing.

   One ring holds the link's frames, oldest first, in three sections:
   the [departed] frames whose delivery is pending (a frame lost on the
   wire as [Packet.placeholder]), then, if [busy], the serializing
   frame, then the queued ones.  A departure moves the cursor, not the
   frame: a frame is written into the ring once, at admission, and its
   slot is cleared once, at its delivery.

   Tie rule.  A departure (T, S, link) is replayed before the event
   being dispatched iff that key is smaller than the event's popped
   (time, born, src) ({!Scheduler.before_dispatching}): exactly the
   events a transmit-done event keyed (T, S, link) preceded.  A full tie
   is an event ranked under the link's own id at (T, S): one of its
   deliveries into a host, or an event the host scheduled while taking
   one.  A host sends only on its uplink, another link, so no such
   event reaches this link's queue or state, and the order of a full
   tie is not observable.  Outside a dispatch (a PDES fault runs on
   the global scheduler at a barrier, after the shard ran every event
   up to it) the link catches up to its scheduler's clock.

   [catch_up] runs before anything reads or writes the link, and at each
   delivery event: D_k precedes D_(k+1), and frame k+1's delivery is
   scheduled when frame k departs, so the pending delivery of the
   serializing frame carries the chain.  Across a PDES boundary the
   delivery fires on another shard, so there alone the link keeps one
   event per frame, [k_depart] at (T, S, link), that carries the chain
   and hands the frame to the exchange buffer. *)

(* degraded-link state installed by the fault layer: the serializer runs
   at a fraction of the nominal rate and packets are dropped on the wire
   with a seeded probability *)
type brownout = { capacity_frac : float; loss_prob : float; rng : Rng.t }

(* where the wire delivers: a host at the wire-delivery instant D, the
   event ranked (T, link); a switch's ingress lane [latency_ns]
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
  ring : Packet.t Ring.t; (* departed, serializing, queued frames *)
  mutable departed : int; (* the serializing frame's index in [ring] *)
  mutable busy : bool; (* a frame is serializing *)
  mutable start_ns : int; (* the serializing frame's start S *)
  mutable depart_ns : int; (* and departure T *)
  mutable corrupted : bool; (* the link failed while serializing it *)
  mutable is_up : bool;
  mutable flips : flip list; (* oldest first *)
  mutable brownout : brownout option;
  mutable tx_bytes : int;
  mutable tx_packets : int;
  mutable down_drops : int;
  mutable brownout_drops : int;
  mutable overflow_drops : int;
  (* defunctionalized event state: deliveries are strictly FIFO
     (constant delays), so a delivery needs no per-event identity *)
  src : int; (* construction-order id ranking this link's events *)
  mutable k_depart : int;
  mutable lost_pending : int; (* placeholders in [ring] *)
  (* deliveries fire as [k_deliver] on [rx_sched]: [sched], or across a
     PDES boundary the destination shard's, where [inject] schedules
     what the partition's exchange buffer took *)
  mutable rx_sched : Scheduler.t;
  mutable k_deliver : int;
  mutable boundary : boundary option;
}

(* a PDES boundary link's two sides: departures go to [push], the
   partition's exchange buffer, and [inject] queues them in [rx] for
   their delivery on the destination shard; its own [ring] then holds no
   departed frame *)
and boundary = {
  push : born_ns:int -> time_ns:int -> Packet.t -> unit;
  rx : Packet.t Ring.t;
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

(* the key of the delivery of a frame departing at [depart_ns]: its
   time, and its born *)
let delivery_ns t ~depart_ns =
  (* event ranks and exchange buffers carry absolute integer ns, the
     PDES barrier currency — lint: allow sema-time-boundary *)
  let d = depart_ns + Sim_time.span_ns t.prop_delay in
  match t.sink with Host_sink _ -> d | Switch_sink s -> d + s.latency_ns

let delivery_born_ns t ~depart_ns =
  match t.sink with
  | Host_sink _ -> depart_ns
  (* the wire-delivery instant D — lint: allow sema-time-boundary *)
  | Switch_sink _ -> depart_ns + Sim_time.span_ns t.prop_delay

(* Start the next queued frame at [start_ns] and schedule the event that
   carries the chain: its delivery, or across a boundary its departure. *)
let rec start_tx t ~start_ns =
  if Ring.length t.ring > t.departed then begin
    let pkt = Ring.get t.ring t.departed in
    Pkt_queue.leave t.queue;
    t.busy <- true;
    Dre.observe_at t.dre ~now_ns:start_ns ~bytes_len:pkt.Packet.size;
    t.tx_bytes <- t.tx_bytes + pkt.Packet.size;
    t.tx_packets <- t.tx_packets + 1;
    let tx = Sim_time.tx_time ~bytes_len:pkt.Packet.size ~rate_bps:(effective_rate t) in
    (* departures key events in absolute ns — lint: allow sema-time-boundary *)
    let depart_ns = start_ns + Sim_time.span_ns tx in
    t.start_ns <- start_ns;
    t.depart_ns <- depart_ns;
    match t.boundary with
    | Some _ ->
      Scheduler.inject_tag t.sched ~time_ns:depart_ns ~born_ns:start_ns ~kind:t.k_depart
        ~arg:0
    | None ->
      Scheduler.inject_tag t.sched ~time_ns:(delivery_ns t ~depart_ns)
        ~born_ns:(delivery_born_ns t ~depart_ns) ~kind:t.k_deliver ~arg:0
  end

(* The serializing frame departs at [depart_ns]: the wire takes it, and
   the serializer starts the next frame that instant.  A frame the link
   failed under is lost, even if the link is back up. *)
and depart t =
  let depart_ns = t.depart_ns in
  t.busy <- false;
  let lost =
    if t.corrupted then begin
      t.corrupted <- false;
      t.down_drops <- t.down_drops + 1;
      true
    end
    else if brownout_lost t then begin
      t.brownout_drops <- t.brownout_drops + 1;
      true
    end
    else false
  in
  (match t.boundary with
   | Some b ->
     let pkt = Ring.pop t.ring in
     if not lost then
       b.push ~born_ns:(delivery_born_ns t ~depart_ns) ~time_ns:(delivery_ns t ~depart_ns) pkt
   | None ->
     if lost then begin
       t.lost_pending <- t.lost_pending + 1;
       Ring.set t.ring t.departed Packet.placeholder
     end;
     t.departed <- t.departed + 1);
  start_tx t ~start_ns:depart_ns

(* replay every departure the dispatching event comes after *)
let rec catch_up t =
  if
    t.busy
    && Scheduler.before_dispatching t.sched ~time_ns:t.depart_ns ~born_ns:t.start_ns
         ~src:t.src
  then begin
    depart t;
    catch_up t
  end

let on_deliver t =
  let pkt =
    match t.boundary with
    | None ->
      catch_up t;
      t.departed <- t.departed - 1;
      Ring.pop t.ring
    | Some b -> Ring.pop b.rx
  in
  if pkt == Packet.placeholder then t.lost_pending <- t.lost_pending - 1
  else
    match t.sink with
    | Host_sink f -> if t.is_up then f pkt else t.down_drops <- t.down_drops + 1
    | Switch_sink s ->
      (* lost iff down at the wire-delivery instant, a pipeline latency ago — lint: allow sema-time-boundary *)
      if up_at t (Sim_time.to_ns (Scheduler.now t.rx_sched) - s.latency_ns) then s.receive pkt
      else t.down_drops <- t.down_drops + 1

(* a boundary link's own event, keyed (T, S, link) as its serializing
   frame's departure: [catch_up] never replays one before its event, as
   no earlier event's key is larger *)
let on_depart t = depart t

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
      (* room for a short queue and its wire, in one array; most links
         never grow it *)
      ring = Ring.create ~capacity:32 ~dummy:Packet.placeholder ();
      departed = 0;
      busy = false;
      start_ns = 0;
      depart_ns = 0;
      corrupted = false;
      is_up = true;
      flips = [];
      brownout = None;
      tx_bytes = 0;
      tx_packets = 0;
      down_drops = 0;
      brownout_drops = 0;
      overflow_drops = 0;
      k_depart = -1;
      lost_pending = 0;
      rx_sched = sched;
      k_deliver = -1;
      boundary = None;
    }
  in
  (* one handler closure per link for its whole lifetime, not one per
     event: the steady-state transmit path allocates nothing *)
  t.k_depart <- Scheduler.register_kind sched (fun _ -> on_depart t);
  t.k_deliver <- Scheduler.register_kind sched (fun _ -> on_deliver t);
  Scheduler.set_kind_src sched ~kind:t.k_depart ~src:t.src;
  rank_deliveries t;
  t

(* the injected ring stays FIFO: the exchange drains a window's buffer
   in generation order *)
let set_boundary t ~dest_sched ~push =
  if Ring.length t.ring > 0 then
    invalid_arg (Printf.sprintf "Link %s: set_boundary on a link holding frames" t.label);
  t.boundary <- Some { push; rx = Ring.create ~capacity:8 ~dummy:Packet.placeholder () };
  if t.rx_sched != dest_sched then begin
    t.rx_sched <- dest_sched;
    t.k_deliver <- Scheduler.register_kind dest_sched (fun _ -> on_deliver t);
    rank_deliveries t
  end

let inject t ~time_ns ~born_ns pkt =
  match t.boundary with
  | None -> invalid_arg (Printf.sprintf "Link %s: inject without boundary" t.label)
  | Some b ->
    Ring.push b.rx pkt;
    Scheduler.inject_tag t.rx_sched ~time_ns ~born_ns ~kind:t.k_deliver ~arg:0

let send t pkt =
  catch_up t;
  if t.is_up then begin
    if Pkt_queue.admit t.queue pkt then begin
      Ring.push t.ring pkt;
      if not t.busy then
        (* the frame starts now — lint: allow sema-time-boundary *)
        start_tx t ~start_ns:(Sim_time.to_ns (Scheduler.now t.sched))
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

(* deliveries scheduled and not yet fired: the departed frames, or
   across a boundary the injected ones *)
let pending_deliveries t =
  match t.boundary with None -> t.departed | Some b -> Ring.length b.rx

let set_up t v =
  catch_up t;
  (match t.sink with
   | Switch_sink _ when pending_deliveries t > 0 ->
     (* for [up_at]; with deliveries pending, [rx_sched] is at this
        instant, under PDES too: faults run at a barrier every shard has
        reached — lint: allow sema-time-boundary *)
     let at_ns = Sim_time.to_ns (Scheduler.now t.rx_sched) in
     t.flips <- t.flips @ [ { at_ns; was_up = t.is_up } ]
   | Host_sink _ | Switch_sink _ -> ());
  t.is_up <- v;
  if not v then begin
    (* drop the queued section: a failed link loses its queued packets,
       and the loss is accounted in both the link and queue statistics
       so packet-conservation audits balance under mid-run failures *)
    let queued_from = if t.busy then t.departed + 1 else t.departed in
    for i = queued_from to Ring.length t.ring - 1 do
      t.down_drops <- t.down_drops + 1;
      Pkt_queue.leave t.queue;
      Pkt_queue.count_drop t.queue (Ring.get t.ring i)
    done;
    Ring.truncate t.ring queued_from;
    (* the frame on the serializer is lost too, when it completes: the
       serializer stays busy until then *)
    if t.busy then t.corrupted <- true
  end

let set_brownout t ~capacity_frac ~loss_prob ~rng =
  if capacity_frac <= 0.0 || capacity_frac > 1.0 then
    invalid_arg "Link.set_brownout: capacity_frac must be in (0, 1]";
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg "Link.set_brownout: loss_prob must be in [0, 1)";
  catch_up t;
  t.brownout <- Some { capacity_frac; loss_prob; rng }

let clear_brownout t =
  catch_up t;
  t.brownout <- None

let utilization t =
  catch_up t;
  Dre.utilization t.dre

let queue t =
  catch_up t;
  t.queue

let rate_bps t = t.rate_bps
let label t = t.label

let tx_bytes t =
  catch_up t;
  t.tx_bytes

let tx_packets t =
  catch_up t;
  t.tx_packets

let down_drops t =
  catch_up t;
  t.down_drops

let brownout_drops t =
  catch_up t;
  t.brownout_drops

let overflow_drops t =
  catch_up t;
  t.overflow_drops

let in_flight t =
  catch_up t;
  let injected = match t.boundary with None -> 0 | Some b -> Ring.length b.rx in
  Ring.length t.ring + injected - t.lost_pending
