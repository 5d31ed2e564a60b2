(* stamp = (epoch lsl seq_bits) lor seq *)
let seq_bits = 32
let seq_mask = (1 lsl seq_bits) - 1

(* a (stream, port) pair as one key: streams are 30-bit flow hashes,
   ports 16-bit *)
let key ~stream ~port = (stream lsl 16) lor port

type t = {
  route_epoch : unit -> int;
  sent : int Int_table.t; (* last seq stamped per (stream, port); -1 = none *)
  seen : int Int_table.t; (* last seq received per (stream, port); -1 = none *)
}

let create ~route_epoch =
  {
    route_epoch;
    sent = Int_table.create ~capacity:16 ~dummy:(-1);
    seen = Int_table.create ~capacity:16 ~dummy:(-1);
  }

let stamp t ~stream ~port =
  let k = key ~stream ~port in
  let seq = Int_table.find_default t.sent k (-1) + 1 in
  Int_table.set t.sent k seq;
  (t.route_epoch () lsl seq_bits) lor seq

let check t sched ~stream ~port ~stamp =
  if stamp >= 0 then begin
    let seq = stamp land seq_mask in
    let k = key ~stream ~port in
    let last = Int_table.find_default t.seen k (-1) in
    if seq <= last then begin
      if stamp lsr seq_bits = t.route_epoch () then
        Scheduler.record_violation sched ~invariant:"flowlet-fifo"
          ~detail:
            (Printf.sprintf "stream %#x port %d: seq %d arrived after seq %d" stream
               port seq last)
    end
    else Int_table.set t.seen k seq
  end
