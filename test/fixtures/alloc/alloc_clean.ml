(* Non-allocating twin of alloc_hot: the handler is a preallocated
   named function that only writes preexisting mutable fields, so
   nothing reachable from the dispatch root allocates and clove-check
   must report no active finding in this file. *)

type handle = { mutable last : int; mutable fires : int }

let h = { last = 0; fires = 0 }

let on_event arg =
  h.last <- arg;
  h.fires <- h.fires + 1

let install sched = ignore (Engine.Scheduler.register_kind sched on_event)
