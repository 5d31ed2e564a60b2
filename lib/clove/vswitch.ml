type scheme =
  | Ecmp
  | Edge_flowlet
  | Clove_ecn
  | Clove_int
  | Clove_latency
  | Presto
  | Direct

type stats = {
  tx_tenant : int;
  rx_tenant : int;
  flowlets : int;
  feedback_piggybacked : int;
  feedback_carriers : int;
  congestion_feedback_seen : int;
  escalations : int;
  probes_answered : int;
  feedback_dropped : int;
  probes_dropped : int;
}

(* everything this vswitch knows about one remote hypervisor: as a
   source, the paths toward it; as a receiver, the feedback it owes it *)
type remote = {
  paths : Path_table.t;
  mutable weights : float array; (* Presto, aligned to [paths]' ports *)
  (* traceroute was asked for this destination (a record created on the
     receive side has not) *)
  mutable discovering : bool;
  fb_queue : Packet.clove_feedback Queue.t;
  last_relay : Sim_time.t Int_table.t; (* port -> last relay time *)
  mutable fb_timer : Scheduler.handle option;
}

(* Presto per-flow spraying state *)
type presto_flow = {
  mutable cell_bytes : int;
  mutable cell_id : int;
  mutable pkt_seq : int;
  mutable cur_port : int;
  p_wrr : Wrr.t;
  p_ports : int array;
}

type t = {
  sched : Scheduler.t;
  host : Host.t;
  stack : Transport.Stack.t;
  scheme : scheme;
  cfg : Clove_config.t;
  (* receiver-side per-path relay rate limit (the paper's RTT/2) *)
  relay_interval : Sim_time.span;
  (* send a dedicated feedback packet if no reverse traffic shows up *)
  feedback_deadline : Sim_time.span;
  rng : Rng.t;
  (* per-packet state lives in flat {!Int_table}s; the [no_*] records are
     each table's dummy, doubling as the physical absence sentinel for
     allocation-free lookups *)
  remotes : remote Int_table.t; (* remote hv -> its record *)
  (* also the one record of every scheme without discovered paths: its
     table stays empty and its queue stays empty *)
  no_remote : remote;
  flowlets : int Flowlet.t; (* decision = outer source port *)
  presto_flows : presto_flow Int_table.t;
  no_presto_flow : presto_flow;
  mutable presto_weight_fn : Clove_path.t -> float;
  presto_rx : Presto_rx.t;
  reorder_seq : int Int_table.t; (* clove_reorder per-flow next seq *)
  (* the pre-allocated flowlet picker: [Flowlet.touch] takes the picker
     as a closure, and building one per packet (capturing the path table
     or flow key) was a per-tx allocation.  Instead the operands live in
     the two [cur_*] slots below and the scheme's closure — built once in
     [create] — reads them; [pick_port] writes the slots immediately
     before the [touch] call, which consumes them synchronously *)
  mutable cur_tbl : Path_table.t;
  mutable cur_key : int;
  mutable pick_fn : flowlet_id:int -> int;
  mutable daemon : Traceroute.t option;
  (* fault-injection drop points, driven by the chaos layer; the rng is a
     dedicated substream consumed only while a loss probability is set *)
  faults_rng : Rng.t;
  mutable fb_loss : float;
  mutable probe_loss : float;
  mutable stopped : bool;
  mutable s_tx : int;
  mutable s_rx : int;
  mutable s_piggy : int;
  mutable s_carrier : int;
  mutable s_fb_seen : int;
  mutable s_escalations : int;
  mutable s_probes_answered : int;
  mutable s_fb_dropped : int;
  mutable s_probes_dropped : int;
}

let needs_discovery = function
  | Clove_ecn | Clove_int | Clove_latency | Presto -> true
  | Ecmp | Edge_flowlet | Direct -> false

(* non-overlay mode rewrites the 5-tuple and hides originals in TCP
   options: 12 bytes instead of a full outer header *)
let rewrite_overhead_bytes = 12

let presto_cell_bytes = 64 * 1024 (* Presto's flowcell size *)

let make_remote ~sched ~cfg =
  {
    paths = Path_table.create ~sched ~cfg;
    weights = [||];
    discovering = false;
    fb_queue = Queue.create ();
    last_relay = Int_table.create ~capacity:8 ~dummy:Sim_time.zero ();
    fb_timer = None;
  }

(* the record of remote hypervisor [hv], created on first use; creating
   one is a pure allocation (no RNG draw, nothing scheduled) *)
let remote t hv =
  if not (needs_discovery t.scheme) then t.no_remote
  else begin
    let key = Addr.to_int hv in
    let r = Int_table.find_default t.remotes key t.no_remote in
    if r != t.no_remote then r
    else begin
      let r = make_remote ~sched:t.sched ~cfg:t.cfg in
      Int_table.set t.remotes key r;
      r
    end
  end

let on_paths t ~dst pairs =
  let r = remote t dst in
  Path_table.install r.paths pairs;
  if t.scheme = Presto then
    r.weights <- Array.of_list (List.map (fun (_, path) -> t.presto_weight_fn path) pairs)

(* ask traceroute for [dst] once, on the explicit [add_destination] or the
   first transmission, whichever comes first *)
let start_discovery t dst r =
  if not r.discovering then begin
    r.discovering <- true;
    match t.daemon with
    | Some d when not (Addr.equal dst (Host.addr t.host)) ->
      Traceroute.add_destination d dst
    | Some _ | None -> ()
  end

let add_destination t dst = start_discovery t dst (remote t dst)

let hashed_port key = 49152 + (Ecmp_hash.hash4 ~seed:0x5107 key 0 0 0 mod 16384)
let random_port t = 49152 + Rng.int t.rng 16384

(* --------------- feedback relay (receiver side) ------------------- *)

let send_feedback_carrier t ~to_hv fb =
  (* a "null probe": an encapsulated control packet whose only purpose is
     to carry the context bits when no reverse traffic exists *)
  let pkt =
    Packet.make ~size:(64 + Packet.encap_header_bytes)
      (Packet.Probe
         {
           Packet.probe_id = -1;
           probe_src = Host.addr t.host;
           probe_dst = to_hv;
           probe_port = 0;
         })
  in
  pkt.Packet.encap <-
    Some
      {
        Packet.src_hv = Host.addr t.host;
        dst_hv = to_hv;
        src_port = random_port t;
        dst_port = Packet.stt_port;
        feedback = Some fb;
        cell = None;
      };
  t.s_carrier <- t.s_carrier + 1;
  Host.send t.host pkt

let rec arm_fb_timer t ~hv r =
  if r.fb_timer = None then
    r.fb_timer <-
      Some
        (Scheduler.schedule t.sched ~after:t.feedback_deadline (fun () ->
             r.fb_timer <- None;
             match Queue.take_opt r.fb_queue with
             | None -> ()
             | Some fb ->
               send_feedback_carrier t ~to_hv:hv fb;
               if not (Queue.is_empty r.fb_queue) then arm_fb_timer t ~hv r))

let enqueue_feedback t ~from_hv r fb =
  let port = match fb with Packet.Fb_ecn { port } | Packet.Fb_sample { port; _ } -> port in
  let now = Scheduler.now t.sched in
  let allowed =
    (* [find_opt] keeps the "never relayed" case distinct from a relay at
       t = 0; this runs per marked packet, not per packet *)
    match Int_table.find_opt r.last_relay port with
    | None -> true
    | Some last -> Sim_time.(now >= add last t.relay_interval)
  in
  if allowed then begin
    Int_table.set r.last_relay port now;
    Queue.add fb r.fb_queue;
    arm_fb_timer t ~hv:from_hv r
  end

let pop_feedback t r =
  match Queue.take_opt r.fb_queue with
  | Some _ as fb ->
    if Queue.is_empty r.fb_queue then (
      match r.fb_timer with
      | Some h ->
        Scheduler.cancel t.sched h;
        r.fb_timer <- None
      | None -> ());
    fb
  | None -> None

(* --------------- feedback application (source side) --------------- *)

let feedback_lost t = t.fb_loss > 0.0 && Rng.float t.faults_rng 1.0 < t.fb_loss
let probe_lost t = t.probe_loss > 0.0 && Rng.float t.faults_rng 1.0 < t.probe_loss

let apply_feedback_live t ~peer_hv r fb =
  t.s_fb_seen <- t.s_fb_seen + 1;
  let tbl = r.paths in
  (match fb with
  | Packet.Fb_ecn { port } -> Path_table.note_congested tbl ~port
  | Packet.Fb_sample { port; value } ->
    Path_table.note_sample tbl ~port ~value;
    (match t.scheme with
    | Clove_latency when t.cfg.Clove_config.adaptive_flowlet_gap ->
      (* Section 7: widen the flowlet gap to cover the measured inter-path
         delay spread so flowlets stay in order across path switches *)
      let spread = Path_table.latency_spread tbl in
      let gap =
        Sim_time.add_span t.cfg.Clove_config.rtt_estimate
          (Sim_time.mul_span spread 2.0)
      in
      Flowlet.set_gap t.flowlets gap
    | _ -> ()));
  if Path_table.all_congested tbl then begin
    t.s_escalations <- t.s_escalations + 1;
    Transport.Stack.ecn_signal_all t.stack ~dst:peer_hv
  end

(* the Feedback_loss fault: congestion feedback evaporates at the vswitch
   before the path table learns anything from it *)
let apply_feedback t ~peer_hv r fb =
  if feedback_lost t then t.s_fb_dropped <- t.s_fb_dropped + 1
  else apply_feedback_live t ~peer_hv r fb

(* ----------------------- outbound dataplane ----------------------- *)

let pick_port t ~flow_key r =
  match t.scheme with
  | Direct -> assert false
  | Ecmp -> hashed_port flow_key
  | Edge_flowlet ->
    t.cur_key <- flow_key;
    Flowlet.touch t.flowlets ~key:flow_key ~pick:t.pick_fn
  | Clove_ecn | Clove_int | Clove_latency ->
    if Path_table.ready r.paths then begin
      t.cur_tbl <- r.paths;
      Flowlet.touch t.flowlets ~key:flow_key ~pick:t.pick_fn
    end
    else hashed_port flow_key
  | Presto -> assert false (* handled separately *)

let presto_pick t ~flow_key r ~wire_size =
  if not (Path_table.ready r.paths) then (hashed_port flow_key, None)
  else begin
    let pf =
      let pf = Int_table.find_default t.presto_flows flow_key t.no_presto_flow in
      if pf != t.no_presto_flow then pf
      else begin
        let pf =
          {
            cell_bytes = 0;
            cell_id = -1;
            pkt_seq = 0;
            cur_port = 0;
            p_wrr = Wrr.create ~weights:r.weights;
            p_ports = Path_table.ports r.paths;
          }
        in
        Int_table.set t.presto_flows flow_key pf;
        pf
      end
    in
    if pf.cell_id < 0 || pf.cell_bytes + wire_size > presto_cell_bytes then begin
      pf.cell_id <- pf.cell_id + 1;
      pf.cell_bytes <- 0;
      pf.cur_port <- pf.p_ports.(Wrr.pick pf.p_wrr)
    end;
    pf.cell_bytes <- pf.cell_bytes + wire_size;
    let cell =
      { Packet.flow_key; cell_id = pf.cell_id; cell_seq = pf.pkt_seq }
    in
    pf.pkt_seq <- pf.pkt_seq + 1;
    (pf.cur_port, Some cell)
  end

let tx t pkt =
  match pkt.Packet.payload with
  | Packet.Probe _ | Packet.Probe_reply _ ->
    (* daemon control traffic: already encapsulated as needed *)
    Host.send t.host pkt
  | Packet.Tenant inner -> (
    t.s_tx <- t.s_tx + 1;
    match t.scheme with
    | Direct -> Host.send t.host pkt
    | _ ->
      let dst = inner.Packet.dst in
      let flow_key = Packet.tcp_flow_key inner in
      (* the one lookup of this packet's remote record *)
      let r = remote t dst in
      start_discovery t dst r;
      let overhead =
        if t.cfg.Clove_config.rewrite_mode then rewrite_overhead_bytes
        else Packet.encap_header_bytes
      in
      let wire_size = pkt.Packet.size + overhead in
      let port, cell =
        match t.scheme with
        | Presto -> presto_pick t ~flow_key r ~wire_size
        | _ -> (pick_port t ~flow_key r, None)
      in
      let cell =
        (* Section 7 flowlet optimization: carry per-flow sequence numbers
           so the receiving vswitch can restore order after path switches *)
        match cell with
        | Some _ -> cell
        | None when t.cfg.Clove_config.clove_reorder ->
          (* flat table stores the next seq directly — no ref cell; the
             dummy 0 is exactly the first sequence number *)
          let seq = Int_table.find_default t.reorder_seq flow_key 0 in
          Int_table.set t.reorder_seq flow_key (seq + 1);
          Some { Packet.flow_key; cell_id = 0; cell_seq = seq }
        | None -> None
      in
      let fb = pop_feedback t r in
      if fb <> None then t.s_piggy <- t.s_piggy + 1;
      (* rewrite the packet's pre-boxed header in place: the steady-state
         encapsulation allocates nothing *)
      Packet.install_encap pkt ~src_hv:(Host.addr t.host) ~dst_hv:dst
        ~src_port:port ~feedback:fb ~cell;
      pkt.Packet.size <- wire_size;
      (* arm the black-hole detector: the path carrying this packet owes
         us liveness evidence (feedback or an ACK) within the timeout
         ([no_remote]'s empty table ignores it) *)
      Path_table.note_tx r.paths ~port;
      if !Analysis.Audit.on then
        pkt.Packet.audit_seq <- Analysis.Audit.fifo_tx ~stream:flow_key ~port;
      (match t.scheme with
      | Clove_ecn -> pkt.Packet.ecn <- Packet.Ect
      | Clove_int ->
        pkt.Packet.ecn <- Packet.Ect;
        pkt.Packet.int_enabled <- true
      | Clove_latency | Ecmp | Edge_flowlet | Presto | Direct -> ());
      Host.send t.host pkt)

(* ----------------------- inbound dataplane ------------------------ *)

let rx_tenant t pkt (inner : Packet.inner) =
  t.s_rx <- t.s_rx + 1;
  match pkt.Packet.encap with
  | None ->
    Transport.Stack.deliver t.stack inner;
    (* the stack consumed the segment synchronously; recycle the bundle *)
    Packet_pool.release pkt
  | Some e ->
    if !Analysis.Audit.on && pkt.Packet.audit_seq >= 0 then
      Analysis.Audit.fifo_rx ~stream:(Packet.tcp_flow_key inner)
        ~port:e.Packet.src_port ~seq:pkt.Packet.audit_seq;
    let peer_hv = e.Packet.src_hv in
    (* the one lookup of the sender's record *)
    let r = remote t peer_hv in
    (* an inbound ACK proves the forward path of that flow delivered data
       recently: credit liveness to the port the flow is pinned to, so a
       healthy-but-feedback-quiet path is never decayed as a black hole *)
    (if inner.Packet.seg.Packet.kind = Packet.Ack then
       match t.scheme with
       | Clove_ecn | Clove_int | Clove_latency -> (
         match
           Flowlet.active_flowlet t.flowlets ~key:(Packet.tcp_flow_key_rev inner)
         with
         | Some port -> Path_table.note_alive r.paths ~port
         | None -> ())
       | Ecmp | Edge_flowlet | Presto | Direct -> ());
    (* source-side: apply feedback the peer piggybacked for us *)
    (match e.Packet.feedback with
    | Some fb -> apply_feedback t ~peer_hv r fb
    | None -> ());
    (* receiver-side: observe fabric congestion state for the sender *)
    (match t.scheme with
    | Clove_ecn ->
      if pkt.Packet.ecn = Packet.Ce then
        enqueue_feedback t ~from_hv:peer_hv r
          (Packet.Fb_ecn { port = e.Packet.src_port })
    | Clove_int ->
      if pkt.Packet.int_enabled then
        enqueue_feedback t ~from_hv:peer_hv r
          (Packet.Fb_sample { port = e.Packet.src_port; value = pkt.Packet.int_util })
    | Clove_latency ->
      (* NIC timestamping + synchronized clocks: one-way delay is simply
         receive time minus the sender's transmit stamp *)
      let delay = Sim_time.diff (Scheduler.now t.sched) pkt.Packet.sent_at in
      enqueue_feedback t ~from_hv:peer_hv r
        (Packet.Fb_sample
           { port = e.Packet.src_port; value = Sim_time.span_to_sec delay })
    | Ecmp | Edge_flowlet | Presto | Direct -> ());
    (* decapsulate; the guest never sees outer ECN marks unless the
       operator runs DCTCP guests and asked for them *)
    if t.cfg.Clove_config.expose_ecn_to_guest && pkt.Packet.ecn = Packet.Ce then
      inner.Packet.inner_ecn <- Packet.Ce;
    (match e.Packet.cell with
    | Some cell ->
      (* Presto_rx may retain [inner] in its reorder buffer: not poolable *)
      Presto_rx.on_packet t.presto_rx inner ~cell
    | None ->
      Transport.Stack.deliver t.stack inner;
      Packet_pool.release pkt)

let rx t pkt =
  match pkt.Packet.payload with
  | Packet.Tenant inner -> rx_tenant t pkt inner
  | Packet.Probe p ->
    (* feedback carriers are "null probes" with id -1: process context
       bits, do not answer *)
    (match pkt.Packet.encap with
    | Some e -> (
      match e.Packet.feedback with
      | Some fb ->
        let peer_hv = e.Packet.src_hv in
        apply_feedback t ~peer_hv (remote t peer_hv) fb
      | None -> ())
    | None -> ());
    if p.Packet.probe_id >= 0 then begin
      (* Probe_loss fault: the traceroute probe dies at the vswitch *)
      if probe_lost t then t.s_probes_dropped <- t.s_probes_dropped + 1
      else begin
        t.s_probes_answered <- t.s_probes_answered + 1;
        let reply =
          Traceroute.answer_probe ~remaining_ttl:pkt.Packet.ttl p
        in
        Host.send t.host reply
      end
    end
  | Packet.Probe_reply r -> (
    match t.daemon with
    | Some d ->
      (* Probe_loss also covers the reply direction *)
      if probe_lost t then t.s_probes_dropped <- t.s_probes_dropped + 1
      else Traceroute.on_reply d r
    | None -> ())

let create ~host ~stack ~scheme ~cfg ~rng () =
  let sched = Host.sched host in
  (* dummies are pure allocations: building them consumes no RNG and
     schedules nothing, so they cannot perturb determinism *)
  let no_remote = make_remote ~sched ~cfg in
  (* marked as discovering so that [start_discovery] skips it *)
  no_remote.discovering <- true;
  let no_presto_flow =
    {
      cell_bytes = 0;
      cell_id = -1;
      pkt_seq = 0;
      cur_port = 0;
      p_wrr = Wrr.create ~weights:[| 1.0 |];
      p_ports = [||];
    }
  in
  let t =
      {
        sched;
        host;
        stack;
        scheme;
        cfg;
        relay_interval = Sim_time.mul_span cfg.Clove_config.rtt_estimate 0.5;
        feedback_deadline = Sim_time.mul_span cfg.Clove_config.rtt_estimate 2.0;
        rng;
        remotes = Int_table.create ~capacity:16 ~dummy:no_remote ();
        no_remote;
        flowlets = Flowlet.create ~sched ~gap:cfg.Clove_config.flowlet_gap ~dummy:0;
        presto_flows = Int_table.create ~capacity:64 ~dummy:no_presto_flow ();
        no_presto_flow;
        presto_weight_fn = (fun _ -> 1.0);
        presto_rx =
          Presto_rx.create ~sched ~cfg ~deliver:(fun inner ->
              Transport.Stack.deliver stack inner);
        reorder_seq = Int_table.create ~capacity:64 ~dummy:0 ();
        cur_tbl = no_remote.paths;
        cur_key = 0;
        pick_fn = (fun ~flowlet_id -> ignore flowlet_id; 0);
        daemon = None;
        faults_rng = Rng.split_named rng "fault-drops";
        fb_loss = 0.0;
        probe_loss = 0.0;
        stopped = false;
        s_tx = 0;
        s_rx = 0;
        s_piggy = 0;
        s_carrier = 0;
        s_fb_seen = 0;
        s_escalations = 0;
        s_probes_answered = 0;
        s_fb_dropped = 0;
        s_probes_dropped = 0;
      }
  in
  (* the scheme's picker closes over [t] (hence the post-construction
     knot): it reads its operands from the [cur_*] slots written by
     [pick_port] just before the [Flowlet.touch] that consumes them *)
  (match scheme with
  | Edge_flowlet ->
    (* a fresh random source port per flowlet: hash of 5-tuple + flowlet id *)
    t.pick_fn <-
      (fun ~flowlet_id ->
        49152 + (Ecmp_hash.hash4 ~seed:0x1eaf t.cur_key flowlet_id 0 0 mod 16384))
  | Clove_ecn ->
    t.pick_fn <- (fun ~flowlet_id -> ignore flowlet_id; Path_table.pick_wrr t.cur_tbl)
  | Clove_int | Clove_latency ->
    t.pick_fn <-
      (fun ~flowlet_id -> ignore flowlet_id; Path_table.pick_min_sample t.cur_tbl)
  | Ecmp | Presto | Direct -> ());
  if needs_discovery scheme then begin
    t.daemon <-
      Some
        (Traceroute.create ~sched ~cfg
           ~rng:(Rng.split_named rng "traceroute")
           ~host_addr:(Host.addr host)
           ~tx:(fun pkt -> Host.send host pkt)
           ~on_paths:(fun ~dst pairs -> on_paths t ~dst pairs));
    (* recovery maintenance: periodic suspect decay / weight recovery over
       every path table, self-rescheduling until [stop] like the daemon *)
    if cfg.Clove_config.failure_recovery then begin
      let maintain_interval = Sim_time.mul_span cfg.Clove_config.rtt_estimate 8.0 in
      let rec tick () =
        if not t.stopped then begin
          Int_table.iter_sorted (fun _ r -> Path_table.maintain r.paths) t.remotes;
          (* evict flows idle for far longer than the flowlet gap.  The
             32x margin keeps eviction observably invisible: the next
             packet of an evicted flow would have started a new flowlet
             anyway (idle >= gap), the Clove pickers ignore [flowlet_id],
             and an ACK arriving that long after the flow's last transmit
             no longer carries usable liveness evidence *)
          Flowlet.expire_older_than t.flowlets
            (Sim_time.mul_span t.cfg.Clove_config.flowlet_gap 32.0);
          let (_ : Scheduler.handle) =
            Scheduler.schedule t.sched ~after:maintain_interval tick
          in
          ()
        end
      in
      let (_ : Scheduler.handle) =
        Scheduler.schedule sched ~after:maintain_interval tick
      in
      ()
    end
  end;
  Host.set_handler host (fun pkt -> rx t pkt);
  t

let set_fault_profile t ~feedback_loss ~probe_loss =
  if feedback_loss < 0.0 || feedback_loss >= 1.0 then
    invalid_arg "Vswitch.set_fault_profile: feedback_loss must be in [0, 1)";
  if probe_loss < 0.0 || probe_loss >= 1.0 then
    invalid_arg "Vswitch.set_fault_profile: probe_loss must be in [0, 1)";
  t.fb_loss <- feedback_loss;
  t.probe_loss <- probe_loss

let set_presto_weight_fn t f = t.presto_weight_fn <- f

let path_table t dst =
  let key = Addr.to_int dst in
  let r = Int_table.find_default t.remotes key t.no_remote in
  if Path_table.ready r.paths then Some r.paths else None

let stats t =
  {
    tx_tenant = t.s_tx;
    rx_tenant = t.s_rx;
    flowlets = Flowlet.flowlets_started t.flowlets;
    feedback_piggybacked = t.s_piggy;
    feedback_carriers = t.s_carrier;
    congestion_feedback_seen = t.s_fb_seen;
    escalations = t.s_escalations;
    probes_answered = t.s_probes_answered;
    feedback_dropped = t.s_fb_dropped;
    probes_dropped = t.s_probes_dropped;
  }

let peak_flows_tracked t = Flowlet.peak_flows_tracked t.flowlets

let stop t =
  t.stopped <- true;
  match t.daemon with Some d -> Traceroute.stop d | None -> ()
