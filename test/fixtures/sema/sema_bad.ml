(* Every binding here breaks one determinism, unit-safety or code rule;
   test_sema expects exactly these (rule, binding) findings. *)
open Engine
open Netsim

let weights : (int, float) Hashtbl.t = Hashtbl.create 16
let log = Buffer.create 256

(* sema-hashtbl-order: effectful closures run in bucket order *)
let dump_weights () =
  Hashtbl.iter
    (fun port w -> Buffer.add_string log (Printf.sprintf "%d:%f\n" port w))
    weights

let total_into c = Hashtbl.fold (fun _ w () -> c := !c +. w) weights ()
let show () = Hashtbl.iter (fun port _ -> Printf.printf "%d\n" port) weights

(* ... and in Int_table slot order, which is unsorted too *)
let flows : int Int_table.t = Int_table.create ~capacity:16 ~dummy:0

let dump_flows () =
  Int_table.fold (fun k v () -> Buffer.add_string log (string_of_int (k + v))) flows ()

let count_into c = Int_table.fold (fun _ v () -> c := !c + v) flows ()

(* sema-raw-random: bypasses the seeded Engine.Rng streams *)
let pick_port ports = List.nth ports (Random.int (List.length ports))
let reseed () = Random.self_init ()

(* sema-wall-clock: wall time leaks into the simulation *)
let stamp () = Unix.gettimeofday ()
let cpu () = Sys.time ()

(* sema-adhoc-seed: constant seed decoupled from the experiment seed *)
let local_rng = Rng.create 42

(* sema-wildcard-variant: silent fall-through over protocol variants *)
let is_probe (pkt : Packet.t) =
  match pkt.Packet.payload with Packet.Probe _ -> true | _ -> false

let fb_port = function Packet.Fb_ecn { port; _ } -> port | _ -> -1

(* sema-time-boundary: raw nanoseconds outside the whitelist *)
let gap_ns = Sim_time.span_ns (Sim_time.us 500)
let instant = Sim_time.of_ns 5

(* sema-unit-mix: bytes added to nanoseconds *)
let nonsense flow_bytes = flow_bytes + gap_ns
let deadline_minus deadline_us queue_pkts = deadline_us -. queue_pkts

(* sema-domain-parallel: multicore primitives outside the pool *)
let spawn work = Domain.spawn work
let lock = Mutex.create ()
let bump counter = Atomic.fetch_and_add counter 1
let wake cv = Condition.broadcast cv

(* obj-magic: an unchecked cast *)
let sentinel : Packet.t = Obj.magic 0

(* poly-compare: polymorphic compare, applied and passed as a value *)
let order a b = compare a b
let sort_weights ws = List.sort Stdlib.compare ws

(* bare-ignore: computed results thrown away *)
let drop_lookup port = ignore (Hashtbl.find_opt weights port)
let drop_piped port = Hashtbl.find_opt weights port |> ignore
let drop_applied port = ignore @@ Hashtbl.find_opt weights port

(* hashtbl-find: raises Not_found on an absent port *)
let weight_of port = Hashtbl.find weights port

(* float-eq: exact comparison against a float literal *)
let idle w = if w = 0.0 then 1 else 0
let busy w = 1.0 <> w
