(* The clean twins of sema_bad.ml: no binding here may be flagged. *)
open Engine
open Netsim

let weights : (int, int) Hashtbl.t = Hashtbl.create 16

(* a pure, commutative fold *)
let total () = Hashtbl.fold (fun _ v acc -> acc + v) weights 0

let flows : int Int_table.t = Int_table.create ~capacity:16 ~dummy:0

let dump b =
  Int_table.iter_sorted
    (fun k v -> Buffer.add_string b (string_of_int (k + v)))
    flows

let flow_total () = Int_table.fold (fun _ v acc -> acc + v) flows 0

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

(* the code rules' near-misses: a local compare, ignore of a variable
   and ignore passed as a value, find_opt, comparisons a float literal
   does not make exact, and the rules' tokens inside strings and
   comments: compare Obj.magic ignore (f x) Hashtbl.find if x = 1.0 *)
let sort_sizes xs =
  let compare (a : int) b = Int.compare b a in
  List.sort compare xs

let unused port = ignore port
let drain q = Queue.iter ignore q
let size_of port = Hashtbl.find_opt weights port
let positive w = w > 0.0
let empty n = n = 0
let same (a : float) b = a = b
let tokens = "compare Obj.magic ignore (f x) Hashtbl.find if x = 1.0"

(* compares ocamlopt specializes, clean under lib/'s poly-compare too:
   Int.min, = against a constant constructor, compares at Float.t and
   String.t, and a local min *)
let smaller a b = Int.min a b
let unset (shape : Hot_compare.shape option) = shape = None
let cheaper (a : Float.t) b = a < b
let same_name (a : String.t) b = a = b

let lowest xs =
  let min (a : int) b = if a <= b then a else b in
  List.fold_left min max_int xs

let present port =
  (* the port was inserted at creation -- lint: allow hashtbl-find *)
  Hashtbl.find weights port
