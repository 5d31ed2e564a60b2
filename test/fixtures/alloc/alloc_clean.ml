(* Non-allocating twin of alloc_hot: the handler is a preallocated
   named function that only writes preexisting mutable fields, so
   nothing reachable from the dispatch root allocates and clove-check
   must report no active finding in this file.  A constructor of
   constants ([Some 64], and the [Some] the typechecker wraps around
   [~capacity:64]) is static data, not a per-event block; the body of
   a function with a defaulted optional argument is that function, not
   a closure it builds. *)

type handle = { mutable last : int; mutable fires : int; mutable cap : int option }

let h = { last = 0; fires = 0; cap = None }

let sized ?capacity arg = match capacity with Some c -> arg land (c - 1) | None -> arg
let masked ?(capacity = 16) arg = arg land (capacity - 1)

let on_event arg =
  h.last <- sized ~capacity:64 arg + masked arg;
  h.cap <- Some 64;
  h.fires <- h.fires + 1

let install sched = ignore (Engine.Scheduler.register_kind sched on_event)
