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

(* an int-keyed heap whose comparator is generic: reached only through
   the mutator call [Event_queue.add] *)
let heap = { Event_queue.top = 0; size = 0 }

let on_key arg = Event_queue.add heap arg

let install_heap sched = ignore (Engine.Scheduler.register_kind sched on_key)

(* behind the auditor's switch: what the audited branch allocates is
   off the steady-state path, reported as [alloc-cold] and not against
   the budget *)
let audit_log = { pending = []; fired = 0 }

let on_audited sched arg =
  if Engine.Scheduler.audit sched then
    audit_log.pending <- (fun () -> audit_log.fired <- arg) :: audit_log.pending

let install_audited sched =
  ignore (Engine.Scheduler.register_kind sched (fun arg -> on_audited sched arg))

(* names alone are no gate: a record field that happens to be called
   [audit], and a local helper called [record_violation], leave their
   branches' allocations in the budget *)
type probe = { audit : bool; mutable log : int list }

let probe = { audit = true; log = [] }

let record_violation arg = probe.log <- arg :: probe.log

let on_probe arg = if probe.audit then probe.log <- arg :: probe.log

let on_probe_violation arg =
  if arg > 0 then begin
    record_violation arg;
    probe.log <- (arg + 1) :: probe.log
  end

let install_probe sched =
  ignore (Engine.Scheduler.register_kind sched on_probe);
  ignore (Engine.Scheduler.register_kind sched on_probe_violation)

(* a constructor over a variable is a heap block per event, where its
   constant twin in alloc_clean is static data *)
type slot = { mutable cap : int option }

let last_arg = { cap = None }

let on_some arg = last_arg.cap <- Some arg

let install_some sched = ignore (Engine.Scheduler.register_kind sched on_some)
