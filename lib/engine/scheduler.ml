(* Discrete-event scheduler: timing wheel + overflow heap, with a
   defunctionalized (zero-allocation) path for steady-state events.

   Two structures hold pending events.  Short-horizon timers — link
   hops, switch pipeline latencies, TCP RTO/TLP, flowlet gaps — land in
   a hierarchical {!Timer_wheel}; far-future events (quiesce horizons,
   long idle timers) overflow into the {!Event_queue} binary heap.  Both
   draw sequence numbers from one scheduler-owned counter, and the wheel
   flushes whole windows into the heap before the clock can reach them,
   so pop order is exactly that of a single binary heap under the
   (time, born, src, seq) total order.  [born] is the insertion instant
   and [src] the owning component's construction-order id; together they
   make same-timestamp tie-breaking shard-invariant under PDES (see
   {!Event_queue}).

   Steady-state events avoid closures entirely: a component registers a
   handler kind once at construction ([register_kind]) and then
   schedules (kind, arg) pairs ([schedule_tag]) carried by pooled,
   reusable handle records.  Pooled handles are fire-and-forget — never
   exposed, never cancellable — so recycling them needs no generation
   counters.  Cancellable or cold-path events keep the closure API.

   Cancelled handles are purged lazily: the wheel drops them when their
   slot flushes, the heap when they pop, and a compaction sweep runs
   when dead handles outnumber live ones (a TCP sender re-arming its RTO
   on every ack would otherwise grow the queue without bound). *)

type handle = {
  mutable live : bool;
  mutable kind : int; (* -1 = closure event; >= 0 = dispatch-table index *)
  mutable arg : int; (* operand for tagged events *)
  src : int; (* closure events: owning component (tie-break rank) *)
  mutable thunk : unit -> unit;
}

(* Component ids for the (time, born, src, seq) event order.  The
   counter is domain-local: one scenario is always constructed on a
   single domain, so ids within a scenario follow construction order
   whatever other domains are doing (a parallel sweep builds unrelated
   scenarios concurrently; only relative order within one scheduler's
   events ever matters). *)
let src_key = Domain.DLS.new_key (fun () -> ref 0)

let fresh_src () =
  let r = Domain.DLS.get src_key in
  incr r;
  !r

type t = {
  id : int;
  mutable clock : Sim_time.t;
  mutable fired : int;
  queue : handle Event_queue.t;
  wheel : handle Timer_wheel.t;
  mutable next_seq : int; (* shared by wheel and heap: one tie-break stream *)
  mutable dead : int; (* cancelled handles still queued *)
  mutable handlers : (int -> unit) array;
  mutable kind_srcs : int array; (* component id per registered kind *)
  mutable n_kinds : int;
  mutable cur_src : int; (* component id of the dispatching event; 0 at setup *)
  mutable pool : handle array; (* free tagged handles, stack discipline *)
  mutable pool_len : int;
  mutable wheel_scheduled : int;
  mutable heap_scheduled : int;
  mutable compactions : int;
}

(* distinguishes schedulers in the invariant auditor's per-clock
   monotonicity watermarks; scenarios may build several schedulers.
   Atomic because parallel sweeps build scenarios on several domains. *)
let next_id = Atomic.make 0

let nop () = ()

(* pads empty queue/wheel/pool slots; [live = false] so it is inert even
   if a bug ever dispatched it *)
let dummy_handle = { live = false; kind = -1; arg = 0; src = 0; thunk = nop }

let nop_handler (_ : int) = ()

let create () =
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    clock = Sim_time.zero;
    fired = 0;
    queue = Event_queue.create ~dummy:dummy_handle ();
    wheel = Timer_wheel.create ~dummy:dummy_handle ~keep:(fun h -> h.live) ();
    next_seq = 0;
    dead = 0;
    handlers = Array.make 8 nop_handler;
    kind_srcs = Array.make 8 0;
    n_kinds = 0;
    cur_src = 0;
    pool = Array.make 32 dummy_handle;
    pool_len = 0;
    compactions = 0;
    wheel_scheduled = 0;
    heap_scheduled = 0;
  }

let now t = t.clock

(* ---- dispatch table ---- *)

let register_kind t f =
  if t.n_kinds = Array.length t.handlers then begin
    let handlers = Array.make (2 * t.n_kinds) nop_handler in
    let kind_srcs = Array.make (2 * t.n_kinds) 0 in
    Array.blit t.handlers 0 handlers 0 t.n_kinds;
    Array.blit t.kind_srcs 0 kind_srcs 0 t.n_kinds;
    t.handlers <- handlers;
    t.kind_srcs <- kind_srcs
  end;
  let k = t.n_kinds in
  t.handlers.(k) <- f;
  t.kind_srcs.(k) <- fresh_src ();
  t.n_kinds <- k + 1;
  k

(* A component with several kinds (or the same logical event reachable
   through different kinds, like a wire delivery scheduled locally
   vs. injected across a PDES boundary) overrides the per-registration
   default so all its events share one rank. *)
let set_kind_src t ~kind ~src = t.kind_srcs.(kind) <- src

(* ---- handle pool (tagged fire-and-forget events only) ---- *)

let alloc_handle t ~kind ~arg =
  if t.pool_len = 0 then { live = true; kind; arg; src = 0; thunk = nop }
  else begin
    let n = t.pool_len - 1 in
    t.pool_len <- n;
    let h = t.pool.(n) in
    t.pool.(n) <- dummy_handle;
    h.live <- true;
    h.kind <- kind;
    h.arg <- arg;
    h
  end

let release_handle t h =
  if t.pool_len = Array.length t.pool then begin
    let pool = Array.make (2 * t.pool_len) dummy_handle in
    Array.blit t.pool 0 pool 0 t.pool_len;
    t.pool <- pool
  end;
  t.pool.(t.pool_len) <- h;
  t.pool_len <- t.pool_len + 1

(* ---- enqueue ---- *)

let push_born t ~time_ns ~born_ns ~src h =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if Timer_wheel.add t.wheel ~time_ns ~born_ns ~src ~seq h then
    t.wheel_scheduled <- t.wheel_scheduled + 1
  else begin
    t.heap_scheduled <- t.heap_scheduled + 1;
    Event_queue.add_at_ns t.queue ~time_ns ~born_ns ~src ~seq h
  end

(* every locally scheduled event is born at the scheduler's own clock —
   exactly the instant the serial engine would have inserted it at *)
let push t ~time_ns ~src h =
  push_born t ~time_ns ~born_ns:(Sim_time.to_ns t.clock) ~src h

let schedule_at t ~time f =
  if Sim_time.(time < t.clock) then
    invalid_arg "Scheduler.schedule_at: time in the past";
  (* closures rank under the component whose handler scheduled them *)
  let src = t.cur_src in
  let h = { live = true; kind = -1; arg = 0; src; thunk = f } in
  push t ~time_ns:(Sim_time.to_ns time) ~src h;
  h

let schedule t ~after f = schedule_at t ~time:(Sim_time.add t.clock after) f

let schedule_tag t ~after ~kind ~arg =
  let time_ns = Sim_time.to_ns t.clock + Sim_time.span_ns after in
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.schedule_tag: time in the past";
  push t ~time_ns ~src:t.kind_srcs.(kind) (alloc_handle t ~kind ~arg)

(* PDES boundary injection: a cross-shard event scheduled with the
   sending shard's insertion instant as its tie-break rank, so a
   same-timestamp tie against locally scheduled events resolves the way
   the serial engine's single insertion clock would have resolved it.
   [born_ns] may lie in this scheduler's past — that is the point — but
   the event time itself must not. *)
let inject_tag t ~time_ns ~born_ns ~kind ~arg =
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.inject_tag: time in the past";
  if born_ns > time_ns then invalid_arg "Scheduler.inject_tag: born after fire";
  push_born t ~time_ns ~born_ns ~src:t.kind_srcs.(kind) (alloc_handle t ~kind ~arg)

(* ---- cancellation & compaction ---- *)

let is_pending h = h.live

(* Sweep dead handles out of both structures when they outnumber live
   ones (and are numerous enough to matter).  Compaction preserves every
   survivor's (time, born, src, seq), and pop order under a total order does not
   depend on heap layout, so this is invisible to the simulation. *)
let maybe_compact t =
  if t.dead > 64 && 2 * t.dead > Event_queue.size t.queue + Timer_wheel.size t.wheel
  then begin
    let live h = h.live in
    let swept =
      Event_queue.compact t.queue ~keep:live + Timer_wheel.compact t.wheel
    in
    t.dead <- t.dead - swept;
    t.compactions <- t.compactions + 1
  end

let cancel t h =
  if h.live then begin
    h.live <- false;
    h.thunk <- nop;
    t.dead <- t.dead + 1;
    maybe_compact t
  end

let schedule_periodic t ~every f =
  if Sim_time.compare_span every Sim_time.zero_span <= 0 then
    invalid_arg "Scheduler.schedule_periodic: period must be positive";
  let rec tick () =
    if f () then
      let (_ : handle) = schedule t ~after:every tick in
      ()
  in
  let (_ : handle) = schedule t ~after:every tick in
  ()

(* ---- dequeue ---- *)

(* Make the heap top the global minimum: if the wheel might hold an
   earlier entry (its O(1) lower bound does not exceed the heap top),
   flush every window up to the heap top into the heap.  With an empty
   heap, flush just the earliest occupied window.  Either way the heap
   top afterwards precedes every entry still staged in the wheel. *)
let prepare t =
  if not (Timer_wheel.is_empty t.wheel) then begin
    let heap_min = Event_queue.min_time_ns t.queue in
    if Timer_wheel.min_bound_ns t.wheel <= heap_min then
      let purged =
        if heap_min = max_int then Timer_wheel.advance_next t.wheel ~into:t.queue
        else Timer_wheel.advance t.wheel ~upto_ns:heap_min ~into:t.queue
      in
      t.dead <- t.dead - purged
  end

let next_time_ns t =
  prepare t;
  Event_queue.min_time_ns t.queue

(* [step] minus the wheel flush, for drivers that just called [prepare]
   as part of their own horizon check ([run] / [run_until]): fusing the
   two saves a second flush decision per event. *)
let step_prepared t =
  if Event_queue.is_empty t.queue then false
  else begin
    let time_ns = Event_queue.min_time_ns t.queue in
    let h = Event_queue.pop_unsafe t.queue in
    if !Analysis.Audit.on then
      Analysis.Audit.note_clock ~clock_id:t.id ~now_ns:time_ns;
    t.clock <- Sim_time.of_ns time_ns;
    t.fired <- t.fired + 1;
    if h.live then begin
      h.live <- false;
      let k = h.kind in
      if k >= 0 then begin
        (* recycle before dispatch: the handler may schedule and reuse
           this very record, which is safe once kind/arg are copied out *)
        let a = h.arg in
        t.cur_src <- t.kind_srcs.(k);
        release_handle t h;
        (* lint: allow alloc-partial-app — dispatch-table fetch returns the per-component closure registered once at construction; the arrow-result rule over-approximates *)
        t.handlers.(k) a
      end
      else begin
        t.cur_src <- h.src;
        h.thunk ()
      end
    end
    else t.dead <- t.dead - 1;
    true
  end

let step t =
  prepare t;
  step_prepared t

let run ?until ?(max_events = max_int) t =
  let fired = ref 0 in
  let continue () =
    !fired < max_events
    && begin
         prepare t;
         let time_ns = Event_queue.min_time_ns t.queue in
         if time_ns = max_int then false
         else
           match until with
           | Some horizon when time_ns > Sim_time.to_ns horizon ->
             t.clock <- horizon;
             false
           | _ -> true
       end
  in
  while continue () do
    let (_ : bool) = step_prepared t in
    incr fired
  done

(* allocation-free horizon drive for the PDES barrier loop: same
   semantics as [run ?until] (clock parks at the horizon when the next
   event lies beyond it; an empty queue leaves the clock alone) without
   the optional-argument boxing or closure — one call per barrier
   window, millions of windows per run *)
let rec run_until t ~until_ns =
  prepare t;
  let time_ns = Event_queue.min_time_ns t.queue in
  if time_ns = max_int then ()
  else if time_ns > until_ns then t.clock <- Sim_time.of_ns until_ns
  else begin
    let (_ : bool) = step_prepared t in
    run_until t ~until_ns
  end

(* ---- accounting ---- *)

let pending_events t = Event_queue.size t.queue + Timer_wheel.size t.wheel
let dead_events t = t.dead
let events_fired t = t.fired
let wheel_scheduled t = t.wheel_scheduled
let heap_scheduled t = t.heap_scheduled
let compactions t = t.compactions
let batched_events (_ : t) = 0
