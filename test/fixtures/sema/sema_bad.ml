(* Every binding here breaks one determinism or unit-safety rule;
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
