type flow_state = {
  mutable expected : int; (* next cell_seq to deliver *)
  buffer : Packet.inner Int_table.t; (* cell_seq -> packet *)
  timer : Scheduler.timer; (* the reorder wait; its operand is the flow key *)
}

let buffer_limit = 512 (* max buffered out-of-order packets per flow *)

type t = {
  sched : Scheduler.t;
  reorder_timeout : Sim_time.span; (* 10 RTTs: the wait for a hole to fill *)
  deliver : Packet.inner -> unit;
  flows : flow_state Int_table.t;
  no_flow : flow_state; (* [flows]' dummy: its timer is never armed *)
  no_inner : Packet.inner; (* every buffer's dummy *)
  expire : int -> unit; (* every flow's timer handler *)
  mutable buffered : int;
  mutable flushes : int;
  mutable reordered : int;
}

let buffered t = t.buffered
let timeout_flushes t = t.flushes
let reordered t = t.reordered

let flow t key =
  let f = Int_table.find_default t.flows key t.no_flow in
  if f != t.no_flow then f
  else begin
    let f =
      {
        expected = 0;
        buffer = Int_table.create ~capacity:16 ~dummy:t.no_inner;
        timer = Scheduler.timer t.sched ~arg:key t.expire;
      }
    in
    Int_table.set t.flows key f;
    f
  end

let drain t f =
  (* deliver buffered packets contiguous with [expected] *)
  let rec go () =
    let inner = Int_table.find_default f.buffer f.expected t.no_inner in
    if inner != t.no_inner then begin
      Int_table.remove f.buffer f.expected;
      t.buffered <- t.buffered - 1;
      f.expected <- f.expected + 1;
      t.deliver inner;
      go ()
    end
  in
  go ()

let flush_all t f =
  (* timeout or overflow: release everything in order, skipping holes *)
  let seqs =
    Int_table.fold (fun s _ acc -> s :: acc) f.buffer [] |> List.sort Int.compare
  in
  List.iter
    (fun s ->
      let inner = Int_table.find_default f.buffer s t.no_inner in
      if inner != t.no_inner then begin
        Int_table.remove f.buffer s;
        t.buffered <- t.buffered - 1;
        f.expected <- max f.expected (s + 1);
        t.deliver inner
      end)
    seqs;
  Scheduler.disarm t.sched f.timer

(* the reorder wait ran out: release what the flow holds *)
let expire t key =
  let f = Int_table.find_default t.flows key t.no_flow in
  if Int_table.length f.buffer > 0 then begin
    t.flushes <- t.flushes + 1;
    flush_all t f
  end

let create ~sched ~cfg ~deliver =
  let reorder_timeout = Sim_time.mul_span cfg.Clove_config.rtt_estimate 10.0 in
  let no_inner =
    {
      Packet.src = Addr.of_int 0;
      dst = Addr.of_int 0;
      inner_ecn = Packet.Not_ect;
      seg =
        {
          Packet.conn_id = -1;
          subflow = 0;
          src_port = 0;
          dst_port = 0;
          seq = 0;
          ack = 0;
          kind = Packet.Data;
          payload = 0;
          ece = false;
        };
    }
  in
  let no_flow =
    {
      expected = 0;
      buffer = Int_table.create ~capacity:2 ~dummy:no_inner;
      timer = Scheduler.timer sched ~arg:(-1) ignore;
    }
  in
  let rec t =
    {
      sched;
      reorder_timeout;
      deliver;
      flows = Int_table.create ~capacity:64 ~dummy:no_flow;
      no_flow;
      no_inner;
      expire = (fun key -> expire t key);
      buffered = 0;
      flushes = 0;
      reordered = 0;
    }
  in
  t

let arm_timer t f =
  if not (Scheduler.armed t.sched f.timer) then
    Scheduler.arm t.sched f.timer ~after:t.reorder_timeout

let on_packet t inner ~cell =
  let f = flow t cell.Packet.flow_key in
  let seq = cell.Packet.cell_seq in
  if seq < f.expected then t.deliver inner (* late duplicate/retransmit *)
  else if seq = f.expected then begin
    f.expected <- f.expected + 1;
    t.deliver inner;
    drain t f;
    if Int_table.length f.buffer = 0 then Scheduler.disarm t.sched f.timer
  end
  else begin
    t.reordered <- t.reordered + 1;
    if not (Int_table.mem f.buffer seq) then begin
      Int_table.set f.buffer seq inner;
      t.buffered <- t.buffered + 1
    end;
    if Int_table.length f.buffer > buffer_limit then begin
      t.flushes <- t.flushes + 1;
      flush_all t f
    end
    else arm_timer t f
  end
