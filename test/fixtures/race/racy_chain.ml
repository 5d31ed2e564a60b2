(* Seeded true positive: a module-level Hashtbl mutated two calls below
   a domain-parallel entry point, with no atomic/lock/DLS discipline.
   clove-check must flag [stats] with the witness chain
   run_batch -> record -> bump -> Hashtbl.replace. *)

let stats : (int, int) Hashtbl.t = Hashtbl.create 16

let bump key =
  let n = match Hashtbl.find_opt stats key with Some n -> n | None -> 0 in
  Hashtbl.replace stats key (n + 1)

let record x = bump (x mod 8)

let run_batch xs = Engine.Domain_pool.run record xs

(* Second seeded positive, exercising a mutator added by the stdlib
   audit: [Array.fast_sort] mutates its *second* argument (target-arg
   index 1), a module-level array reordered from a parallel task. *)

let order = Array.make 8 0

let resort () = Array.fast_sort compare order

let reorder x = if x land 1 = 0 then resort ()

let run_sorted xs = Engine.Domain_pool.run reorder xs
