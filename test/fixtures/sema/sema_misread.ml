(* Ten snippets that matching on spellings instead of resolved names
   misreads: eight violations reached through a qualified path, an
   alias, a repository mutator, a local open or an expression that is no
   conditional, one local constructor named like a packet kind, and one
   local compare defined away from its use. *)
open Engine

let weights : (int, int) Hashtbl.t = Hashtbl.create 16

(* sema-hashtbl-order through a qualified path *)
let qualified b =
  Stdlib.Hashtbl.iter (fun k _ -> Buffer.add_string b (string_of_int k)) weights

(* sema-hashtbl-order through a local module alias *)
let aliased b =
  let module H = Hashtbl in
  H.iter (fun k _ -> Buffer.add_string b (string_of_int k)) weights

(* sema-hashtbl-order with a repository mutator in the closure *)
let mirrored (t : int Int_table.t) = Hashtbl.iter (fun k v -> Int_table.set t k v) weights

(* sema-time-boundary through a local open *)
let opened_time t =
  let open Sim_time in
  to_ns t

(* sema-wall-clock through a local open *)
let opened_clock () =
  let open Unix in
  gettimeofday ()

(* not sema-wildcard-variant: a local type whose constructor is named
   like a packet kind *)
type frame = Data | Control | Padding

let is_data = function Data -> true | _ -> false

(* hashtbl-find through a local open *)
let opened_find k =
  let open Hashtbl in
  find weights k

(* obj-magic through a module alias *)
let aliased_magic =
  let module O = Obj in
  (O.magic 0 : int list)

(* float-eq outside any conditional *)
let exact_zero w = w = 0.0

(* not poly-compare: the compare in scope is a local, typed one *)
let compare (a : int) b = Int.compare a b
let sort_ints xs = List.sort compare xs
