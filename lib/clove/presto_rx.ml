type flow_state = {
  mutable expected : int; (* next cell_seq to deliver *)
  buffer : (int, Packet.inner) Hashtbl.t;
  timer : Scheduler.timer; (* the reorder wait; its operand is the flow key *)
}

let buffer_limit = 512 (* max buffered out-of-order packets per flow *)

type t = {
  sched : Scheduler.t;
  reorder_timeout : Sim_time.span; (* 10 RTTs: the wait for a hole to fill *)
  deliver : Packet.inner -> unit;
  flows : (int, flow_state) Hashtbl.t;
  expire : int -> unit; (* every flow's timer handler *)
  mutable buffered : int;
  mutable flushes : int;
  mutable reordered : int;
}

let buffered t = t.buffered
let timeout_flushes t = t.flushes
let reordered t = t.reordered

let flow t key =
  match Hashtbl.find_opt t.flows key with
  | Some f -> f
  | None ->
    let f =
      {
        expected = 0;
        buffer = Hashtbl.create 16;
        timer = Scheduler.timer t.sched ~arg:key t.expire;
      }
    in
    Hashtbl.replace t.flows key f;
    f

let drain t f =
  (* deliver buffered packets contiguous with [expected] *)
  let rec go () =
    match Hashtbl.find_opt f.buffer f.expected with
    | Some inner ->
      Hashtbl.remove f.buffer f.expected;
      t.buffered <- t.buffered - 1;
      f.expected <- f.expected + 1;
      t.deliver inner;
      go ()
    | None -> ()
  in
  go ()

let flush_all t f =
  (* timeout or overflow: release everything in order, skipping holes *)
  let seqs =
    Hashtbl.fold (fun s _ acc -> s :: acc) f.buffer [] |> List.sort Int.compare
  in
  List.iter
    (fun s ->
      match Hashtbl.find_opt f.buffer s with
      | Some inner ->
        Hashtbl.remove f.buffer s;
        t.buffered <- t.buffered - 1;
        f.expected <- max f.expected (s + 1);
        t.deliver inner
      | None -> ())
    seqs;
  Scheduler.disarm t.sched f.timer

(* the reorder wait ran out: release what the flow holds *)
let expire t key =
  match Hashtbl.find_opt t.flows key with
  | Some f when Hashtbl.length f.buffer > 0 ->
    t.flushes <- t.flushes + 1;
    flush_all t f
  | Some _ | None -> ()

let create ~sched ~cfg ~deliver =
  let reorder_timeout = Sim_time.mul_span cfg.Clove_config.rtt_estimate 10.0 in
  let rec t =
    {
      sched;
      reorder_timeout;
      deliver;
      flows = Hashtbl.create 64;
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
    if Hashtbl.length f.buffer = 0 then Scheduler.disarm t.sched f.timer
  end
  else begin
    t.reordered <- t.reordered + 1;
    if not (Hashtbl.mem f.buffer seq) then begin
      Hashtbl.replace f.buffer seq inner;
      t.buffered <- t.buffered + 1
    end;
    if Hashtbl.length f.buffer > buffer_limit then begin
      t.flushes <- t.flushes + 1;
      flush_all t f
    end
    else arm_timer t f
  end
