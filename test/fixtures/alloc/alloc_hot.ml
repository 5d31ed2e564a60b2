(* Seeded hot-path allocator: the dispatch handler registered with
   [Scheduler.register_kind] reaches, two calls deep, a helper that
   conses a fresh closure per event.  clove-check must flag the
   closure literal and the list cons in [push_thunk] with a witness
   chain from the registration root:
     install.<kind@..> -> on_event -> push_thunk -> closure/cons. *)

type sink = { mutable pending : (unit -> unit) list; mutable fired : int }

let sink = { pending = []; fired = 0 }

let push_thunk v =
  sink.pending <- (fun () -> sink.fired <- sink.fired + v) :: sink.pending

let on_event arg = push_thunk (arg + 1)

let install sched =
  ignore (Engine.Scheduler.register_kind sched (fun arg -> on_event arg))
