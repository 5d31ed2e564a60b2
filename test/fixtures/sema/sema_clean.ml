(* The clean twins of sema_bad.ml: no binding here may be flagged. *)
open Engine
open Netsim

let weights : (int, int) Hashtbl.t = Hashtbl.create 16

(* a pure, commutative fold *)
let total () = Hashtbl.fold (fun _ v acc -> acc + v) weights 0

let dump b =
  Det.iter_sorted ~compare:Int.compare
    (fun k v -> Buffer.add_string b (string_of_int (k + v)))
    weights

(* a local function named like a mutator mutates nothing *)
let shadowed () =
  let incr x = x + 1 in
  Hashtbl.fold (fun _ v acc -> incr v + acc) weights 0

let logged b =
  (* log order is cosmetic -- lint: allow sema-hashtbl-order *)
  Hashtbl.iter (fun k _ -> Buffer.add_string b (string_of_int k)) weights

let pick rng xs = List.nth xs (Rng.int rng (List.length xs))
let now sched = Scheduler.now sched

let timed () =
  (* harness timing -- lint: allow sema-wall-clock *)
  Sys.time ()

let seeded seed = Rng.create seed
let named parent = Rng.split_named parent "letflow"

(* exhaustive protocol matches and wildcards over other types *)
let ecn_code = function Packet.Not_ect -> 0 | Packet.Ect -> 1 | Packet.Ce -> 2
let is_some = function Some _ -> true | _ -> false
let relabel (k : Packet.tcp_kind) = k
let half rtt = Sim_time.mul_span rtt 0.5
let sizes flow_bytes hdr_bytes = flow_bytes + hdr_bytes
let times gap_ns rtt_ns = gap_ns + rtt_ns
let plain a b = a + b

(* calls into the pool are not calls into Domain *)
let fan xs = Domain_pool.run (fun x -> x + 1) xs

let counted counter =
  (* harness counter -- lint: allow sema-domain-parallel *)
  Atomic.fetch_and_add counter 1
