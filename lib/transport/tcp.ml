type job = { end_seq : int; on_complete : unit -> unit }

let mss = 1400
let init_cwnd_pkts = 10.0
let dupack_threshold = 3
let dctcp_g = 1.0 /. 16.0 (* DCTCP's EWMA gain, as in the paper *)

type coupling = {
  pull : unit -> int;
  ca_increase : unit -> float;
  on_acked : int -> unit;
  on_timeout : unit -> unit;
}

(* Congestion-control floats live in their own all-float record: OCaml
   stores such a record as a flat float block, so the per-ACK writes
   ([cwnd] grows on every ACK) store unboxed doubles in place.  The same
   fields as mutable floats of the mixed [sender] record would box a
   fresh float on every write. *)
type cc = {
  mutable cwnd : float; (* packets *)
  mutable ssthresh : float; (* packets *)
  mutable dctcp_alpha : float; (* DCTCP marked-byte fraction estimate *)
  mutable min_rtt_ns : float; (* lowest raw sample seen; HyStart baseline *)
}

type sender = {
  sched : Scheduler.t;
  dctcp : bool;
  conn_id : int;
  subflow : int;
  src : Addr.t;
  dst : Addr.t;
  src_port : int;
  dst_port : int;
  tx : Packet.t -> unit;
  jobs : job Queue.t;
  rtt : Rtt_estimator.t;
  mutable snd_una : int;
  mutable snd_next : int;
  mutable stream_end : int;
  cc : cc;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  rto : Scheduler.timer;
  tlp : Scheduler.timer;
  mutable tlp_fired : bool; (* one probe per flight *)
  (* the in-flight RTT probe, flattened from [(int * Sim_time.t) option]
     so arming one (once per window) writes two immediates instead of
     allocating a tuple inside an option; seq < 0 means "no probe" *)
  mutable rtt_probe_seq : int;
  mutable rtt_probe_t0 : Sim_time.t;
  mutable last_ecn_cut : Sim_time.t;
  mutable ever_cut : bool;
  (* DCTCP state: fraction of marked bytes over the last window *)
  mutable dctcp_acked : int;
  mutable dctcp_marked : int;
  mutable dctcp_window_end : int;
  coupling : coupling option; (* MPTCP's; [None] is plain TCP *)
  mutable retransmits : int;
  mutable timeouts : int;
  mutable stopped : bool;
}

let cwnd_pkts s = s.cc.cwnd
let srtt s ~default = Rtt_estimator.srtt s.rtt ~default
let flight_bytes s = s.snd_next - s.snd_una
let snd_una s = s.snd_una
let retransmits s = s.retransmits
let timeouts s = s.timeouts
let conn_id s = s.conn_id
let subflow_id s = s.subflow
let dst s = s.dst
let cwnd_bytes s = int_of_float (s.cc.cwnd *. float_of_int mss)

let stop s =
  s.stopped <- true;
  Scheduler.disarm s.sched s.rto;
  Scheduler.disarm s.sched s.tlp

let emit_data s ~seq ~payload =
  s.tx
    (Packet_pool.acquire_tenant ~src:s.src ~dst:s.dst ~conn_id:s.conn_id
       ~subflow:s.subflow ~src_port:s.src_port ~dst_port:s.dst_port ~seq ~ack:0
       ~kind:Packet.Data ~payload ~ece:false)

let rec arm_rto s =
  if flight_bytes s > 0 && not s.stopped then begin
    Scheduler.arm s.sched s.rto ~after:(Rtt_estimator.rto s.rtt);
    arm_tlp s
  end
  else Scheduler.disarm s.sched s.rto

and arm_tlp s =
  (* tail loss probe (Linux since 3.10): if no ACK arrives within the
     probe timeout, retransmit the last unacked segment; a lost flight
     tail then recovers via dupacks/cumulative ACK instead of a full RTO *)
  if not (Scheduler.armed s.sched s.tlp || s.tlp_fired || s.in_recovery) then
    Scheduler.arm s.sched s.tlp ~after:(Rtt_estimator.pto s.rtt)

and on_tlp s =
  if flight_bytes s > 0 && (not s.stopped) && not s.in_recovery then begin
    s.tlp_fired <- true;
    let seq = Int.max s.snd_una (s.snd_next - mss) in
    let payload = Int.min mss (s.stream_end - seq) in
    if payload > 0 then begin
      s.retransmits <- s.retransmits + 1;
      s.rtt_probe_seq <- -1;
      emit_data s ~seq ~payload
    end
  end

and on_rto s =
  if flight_bytes s > 0 && not s.stopped then begin
    s.timeouts <- s.timeouts + 1;
    Scheduler.disarm s.sched s.tlp;
    s.tlp_fired <- false;
    Rtt_estimator.backoff s.rtt;
    (* once per timeout, never per packet — lint: allow alloc-boxed-float *)
    let flight_pkts = float_of_int (flight_bytes s) /. float_of_int mss in
    (* the same timeout-only cut — lint: allow alloc-boxed-float *)
    s.cc.ssthresh <- Float.max (flight_pkts /. 2.0) 2.0;
    s.cc.cwnd <- 1.0;
    s.in_recovery <- false;
    s.dup_acks <- 0;
    s.rtt_probe_seq <- -1;
    (* go-back-N: rewind and retransmit from the oldest unacked byte *)
    s.snd_next <- s.snd_una;
    s.retransmits <- s.retransmits + 1;
    let payload = Int.min mss (s.stream_end - s.snd_una) in
    if payload > 0 then begin
      emit_data s ~seq:s.snd_una ~payload;
      s.snd_next <- s.snd_una + payload
    end;
    arm_rto s;
    match s.coupling with Some c -> c.on_timeout () | None -> ()
  end

let create_sender ~sched ~dctcp ?coupling ~conn_id ?(subflow = 0) ~src ~dst ~src_port
    ~dst_port ~tx () =
  (* the timers rank under the sender's own component id: MPTCP arms all
     its subflows' timers from one handler in one instant.  The record
     and its timers' handlers are built together through [lazy]: a
     handler needs the record, which holds the timers.  Each handler is
     passed to [Scheduler.timer] itself, so clove-check roots it. *)
  let timer_src = Scheduler.fresh_src () in
  let rec s =
    lazy
      {
        sched;
        dctcp;
        conn_id;
        subflow;
        src;
        dst;
        src_port;
        dst_port;
        tx;
        jobs = Queue.create ();
        rtt = Rtt_estimator.create ();
        snd_una = 0;
        snd_next = 0;
        stream_end = 0;
        cc =
          {
            cwnd = init_cwnd_pkts;
            ssthresh = 1e9;
            dctcp_alpha = 1.0;
            min_rtt_ns = infinity;
          };
        dup_acks = 0;
        in_recovery = false;
        recover = 0;
        rto =
          Scheduler.timer sched ~src:timer_src ~arg:0 (fun _ ->
              on_rto (Lazy.force s));
        tlp =
          Scheduler.timer sched ~src:timer_src ~arg:0 (fun _ ->
              on_tlp (Lazy.force s));
        tlp_fired = false;
        rtt_probe_seq = -1;
        rtt_probe_t0 = Sim_time.zero;
        last_ecn_cut = Sim_time.zero;
        ever_cut = false;
        dctcp_acked = 0;
        dctcp_marked = 0;
        dctcp_window_end = 0;
        coupling;
        retransmits = 0;
        timeouts = 0;
        stopped = false;
      }
  in
  Lazy.force s

let retransmit_hole s =
  let payload = Int.min mss (s.stream_end - s.snd_una) in
  if payload > 0 then begin
    s.retransmits <- s.retransmits + 1;
    s.rtt_probe_seq <- -1;
    emit_data s ~seq:s.snd_una ~payload
  end

let rec try_send s =
  if s.stopped then ()
  else begin
    (* extend the stream from the MPTCP scheduler if we have window room *)
    (if s.snd_next >= s.stream_end then
       match s.coupling with
       | Some c when s.snd_next - s.snd_una < cwnd_bytes s ->
         let granted = c.pull () in
         if granted > 0 then s.stream_end <- s.stream_end + granted
       | _ -> ());
    if s.snd_next < s.stream_end && s.snd_next - s.snd_una < cwnd_bytes s then begin
      let payload = Int.min mss (s.stream_end - s.snd_next) in
      emit_data s ~seq:s.snd_next ~payload;
      if s.rtt_probe_seq < 0 then begin
        s.rtt_probe_seq <- s.snd_next + payload;
        s.rtt_probe_t0 <- Scheduler.now s.sched
      end;
      s.snd_next <- s.snd_next + payload;
      if not (Scheduler.armed s.sched s.rto) then arm_rto s;
      try_send s
    end
  end

let send s ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Tcp.send: bytes must be positive";
  s.stream_end <- s.stream_end + bytes;
  Queue.add { end_seq = s.stream_end; on_complete } s.jobs;
  try_send s

let complete_jobs s =
  let rec loop () =
    match Queue.peek_opt s.jobs with
    | Some job when job.end_seq <= s.snd_una ->
      let (_ : job) = Queue.pop s.jobs in
      job.on_complete ();
      loop ()
    | _ -> ()
  in
  loop ()

let ecn_signal s =
  (* at most one multiplicative decrease per RTT, RFC 3168 style; DCTCP
     scales the decrease by the marked fraction instead of halving *)
  let now = Scheduler.now s.sched in
  let guard = Rtt_estimator.srtt s.rtt ~default:(Sim_time.us 100) in
  if (not s.ever_cut) || Sim_time.(now >= add s.last_ecn_cut guard) then begin
    s.ever_cut <- true;
    s.last_ecn_cut <- now;
    let factor = if s.dctcp then 1.0 -. (s.cc.dctcp_alpha /. 2.0) else 0.5 in
    s.cc.ssthresh <- Float.max (s.cc.cwnd *. factor) 2.0;
    s.cc.cwnd <- s.cc.ssthresh
  end

let dctcp_account s ~acked_bytes ~ece =
  if s.dctcp then begin
    s.dctcp_acked <- s.dctcp_acked + acked_bytes;
    if ece then s.dctcp_marked <- s.dctcp_marked + acked_bytes;
    if s.snd_una >= s.dctcp_window_end && s.dctcp_acked > 0 then begin
      let f = float_of_int s.dctcp_marked /. float_of_int s.dctcp_acked in
      s.cc.dctcp_alpha <- ((1.0 -. dctcp_g) *. s.cc.dctcp_alpha) +. (dctcp_g *. f);
      s.dctcp_acked <- 0;
      s.dctcp_marked <- 0;
      s.dctcp_window_end <- s.snd_next
    end
  end

let grow_window s ~acked_bytes =
  let acked_pkts = float_of_int acked_bytes /. float_of_int mss in
  if s.cc.cwnd < s.cc.ssthresh then
    s.cc.cwnd <- s.cc.cwnd +. acked_pkts (* slow start *)
  else
    let inc =
      match s.coupling with
      | Some c -> c.ca_increase () *. acked_pkts
      | None -> acked_pkts /. s.cc.cwnd
    in
    s.cc.cwnd <- s.cc.cwnd +. inc

let on_ack s (seg : Packet.tcp_seg) =
  if s.stopped then ()
  else begin
    if seg.Packet.ece then ecn_signal s;
    let ack = seg.Packet.ack in
    if ack > s.snd_una then begin
      let acked_bytes = ack - s.snd_una in
      dctcp_account s ~acked_bytes ~ece:seg.Packet.ece;
      if s.rtt_probe_seq >= 0 && ack >= s.rtt_probe_seq then begin
        let sample = Sim_time.diff (Scheduler.now s.sched) s.rtt_probe_t0 in
        Rtt_estimator.sample s.rtt sample;
        (* the CC heuristics below mirror RTTs as a raw ns float for cheap
           ratio tests — lint: allow sema-time-boundary *)
        let ns = float_of_int (Sim_time.span_ns sample) in
        if ns < s.cc.min_rtt_ns then s.cc.min_rtt_ns <- ns;
        (* HyStart-style delay increase detection: leave slow start when
           queueing inflates the RTT, instead of overshooting until loss *)
        if
          s.cc.cwnd < s.cc.ssthresh && s.cc.cwnd > 16.0
          && Float.is_finite s.cc.min_rtt_ns
          && ns > s.cc.min_rtt_ns *. 1.5
        then s.cc.ssthresh <- s.cc.cwnd;
        s.rtt_probe_seq <- -1
      end;
      s.snd_una <- ack;
      s.dup_acks <- 0;
      if s.in_recovery then begin
        if ack >= s.recover then begin
          s.in_recovery <- false;
          s.cc.cwnd <- s.cc.ssthresh
        end
        else
          (* NewReno partial ACK: the next hole is lost too *)
          retransmit_hole s
      end
      else grow_window s ~acked_bytes;
      (match s.coupling with Some c -> c.on_acked acked_bytes | None -> ());
      complete_jobs s;
      Scheduler.disarm s.sched s.tlp;
      s.tlp_fired <- false;
      arm_rto s;
      try_send s
    end
    else if flight_bytes s > 0 then begin
      s.dup_acks <- s.dup_acks + 1;
      (* RFC 5827 early retransmit: with a small flight there can never be
         enough duplicate ACKs, so lower the threshold to flight-1 *)
      let flight_pkts = (flight_bytes s + mss - 1) / mss in
      let threshold =
        Int.min dupack_threshold (Int.max 1 (flight_pkts - 1))
      in
      if s.dup_acks >= threshold && not s.in_recovery then begin
        let flight_pkts = float_of_int (flight_bytes s) /. float_of_int mss in
        s.cc.ssthresh <- Float.max (flight_pkts /. 2.0) 2.0;
        s.in_recovery <- true;
        s.recover <- s.snd_next;
        retransmit_hole s;
        s.cc.cwnd <- s.cc.ssthresh +. 3.0
      end
      else if s.in_recovery then begin
        (* window inflation per additional dupack *)
        s.cc.cwnd <- s.cc.cwnd +. 1.0;
        try_send s
      end
    end
  end

(* ------------------------------------------------------------------ *)

type receiver = {
  r_conn_id : int;
  r_subflow : int;
  r_addr : Addr.t;
  r_peer : Addr.t;
  r_src_port : int;
  r_dst_port : int;
  r_tx : Packet.t -> unit;
  mutable rcv_next : int;
  mutable ooo : (int * int) list; (* disjoint sorted intervals above rcv_next *)
  mutable delivered : int;
  mutable ooo_count : int;
}

let create_receiver ~conn_id ?(subflow = 0) ~addr ~peer ~src_port ~dst_port ~tx () =
  {
    r_conn_id = conn_id;
    r_subflow = subflow;
    r_addr = addr;
    r_peer = peer;
    r_src_port = src_port;
    r_dst_port = dst_port;
    r_tx = tx;
    rcv_next = 0;
    ooo = [];
    delivered = 0;
    ooo_count = 0;
  }

let conn_id_r r = r.r_conn_id
let subflow_id_r r = r.r_subflow
let rcv_next r = r.rcv_next
let delivered_bytes r = r.delivered
let ooo_segments r = r.ooo_count

let insert_interval intervals ((lo : int), (hi : int)) =
  (* insert and coalesce; list stays sorted by lo *)
  let rec go = function
    | [] -> [ (lo, hi) ]
    | (a, b) :: rest when hi < a -> (lo, hi) :: (a, b) :: rest
    | (a, b) :: rest when b < lo -> (a, b) :: go rest
    | (a, b) :: rest ->
      (* overlap: merge and keep folding into the remainder *)
      let merged = (Int.min a lo, Int.max b hi) in
      let rec fold (x, y) = function
        | (c, d) :: more when c <= y -> fold (x, Int.max y d) more
        | more -> (x, y) :: more
      in
      fold merged rest
  in
  go intervals

let absorb r =
  (* consume buffered intervals now contiguous with rcv_next *)
  let rec go () =
    match r.ooo with
    | (a, b) :: rest when a <= r.rcv_next ->
      if b > r.rcv_next then r.rcv_next <- b;
      r.ooo <- rest;
      go ()
    | _ -> ()
  in
  go ()

let send_ack r ~ece =
  r.r_tx
    (Packet_pool.acquire_tenant ~src:r.r_addr ~dst:r.r_peer
       ~conn_id:r.r_conn_id ~subflow:r.r_subflow ~src_port:r.r_src_port
       ~dst_port:r.r_dst_port ~seq:0 ~ack:r.rcv_next ~kind:Packet.Ack
       ~payload:0 ~ece)

let on_data r (inner : Packet.inner) =
  let seg = inner.Packet.seg in
  let lo = seg.Packet.seq and hi = seg.Packet.seq + seg.Packet.payload in
  let before = r.rcv_next in
  if hi <= r.rcv_next then () (* pure duplicate *)
  else if lo <= r.rcv_next then begin
    r.rcv_next <- hi;
    absorb r
  end
  else begin
    r.ooo <- insert_interval r.ooo (lo, hi);
    r.ooo_count <- r.ooo_count + 1
  end;
  r.delivered <- r.delivered + (r.rcv_next - before);
  let ece = inner.Packet.inner_ecn = Packet.Ce in
  send_ack r ~ece
