(* stamp = (epoch lsl seq_bits) lor seq *)
let seq_bits = 32
let seq_mask = (1 lsl seq_bits) - 1

type t = {
  route_epoch : unit -> int;
  sent : (int * int, int) Hashtbl.t; (* last seq stamped per (stream, port) *)
  seen : (int * int, int) Hashtbl.t; (* last seq received per (stream, port) *)
}

let create ~route_epoch = { route_epoch; sent = Hashtbl.create 16; seen = Hashtbl.create 16 }

let stamp t ~stream ~port =
  let seq = match Hashtbl.find_opt t.sent (stream, port) with Some s -> s + 1 | None -> 0 in
  Hashtbl.replace t.sent (stream, port) seq;
  (t.route_epoch () lsl seq_bits) lor seq

let check t sched ~stream ~port ~stamp =
  if stamp >= 0 then begin
    let seq = stamp land seq_mask in
    match Hashtbl.find_opt t.seen (stream, port) with
    | Some last when seq <= last ->
      if stamp lsr seq_bits = t.route_epoch () then
        Scheduler.record_violation sched ~invariant:"flowlet-fifo"
          ~detail:
            (Printf.sprintf "stream %#x port %d: seq %d arrived after seq %d" stream
               port seq last)
    | Some _ | None -> Hashtbl.replace t.seen (stream, port) seq
  end
