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

   A pending event is one immediate [int], so neither structure holds a
   pointer:
   - a tagged event (>= 0) packs its handler kind and operand as
     [kind lor (arg lsl kind_bits)]: a component registers a handler
     kind once at construction ([register_kind]) and then schedules
     (kind, arg) pairs ([schedule_tag]).  Tagged events are
     fire-and-forget — never exposed, never cancellable;
   - a closure event (< 0) is [lnot i], where slot [i] of the
     scheduler's slab holds its cancellable [handle].  The slot is freed
     when the entry fires or is purged, so the slab is bounded by the
     closure events pending at once.

   Cancelled handles are purged lazily: the wheel drops them when their
   slot flushes, the heap when they pop, and a compaction sweep runs
   when dead handles outnumber live ones (a TCP sender re-arming its RTO
   on every ack would otherwise grow the queue without bound). *)

type handle = {
  mutable live : bool;
  src : int; (* owning component (tie-break rank) *)
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

(* tagged event code: kind in the low [kind_bits], arg above them, both
   non-negative so the code stays >= 0 *)
let kind_bits = 20
let max_kind = (1 lsl kind_bits) - 1
let max_arg = max_int lsr kind_bits

(* closure events' handles, by slot; [free] is a stack of the free slot
   indices *)
type slab = {
  mutable handles : handle array;
  mutable free : int array;
  mutable n_free : int;
}

type t = {
  id : int;
  mutable clock : Sim_time.t;
  mutable fired : int;
  queue : int Event_queue.t;
  wheel : Timer_wheel.t;
  slab : slab;
  keep : int -> bool; (* purge predicate shared by wheel and heap *)
  mutable next_seq : int; (* shared by wheel and heap: one tie-break stream *)
  mutable dead : int; (* cancelled handles still queued *)
  mutable handlers : (int -> unit) array;
  mutable kind_srcs : int array; (* component id per registered kind *)
  mutable n_kinds : int;
  mutable cur_src : int; (* component id of the dispatching event; 0 at setup *)
  mutable wheel_scheduled : int;
  mutable heap_scheduled : int;
  mutable compactions : int;
}

(* distinguishes schedulers in the invariant auditor's per-clock
   monotonicity watermarks; scenarios may build several schedulers.
   Atomic because parallel sweeps build scenarios on several domains. *)
let next_id = Atomic.make 0

let nop () = ()

(* pads free slab slots; [live = false] so it is inert even if a bug
   ever dispatched it *)
let dummy_handle = { live = false; src = 0; thunk = nop }

let nop_handler (_ : int) = ()

(* [a] doubled, its entries kept: the one growth step of the slab and
   the dispatch table *)
let double a fill =
  let n = Array.length a in
  (* amortized doubling: O(log n) times per scheduler, never in steady state — lint: allow alloc-array *)
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let free_slot slab i =
  slab.handles.(i) <- dummy_handle;
  slab.free.(slab.n_free) <- i;
  slab.n_free <- slab.n_free + 1

(* A tagged event is always live.  A closure event whose handle was
   cancelled is purged: its slot is freed here, where the wheel or the
   heap drops the entry, since nothing else will see it again. *)
let keep_event slab ev =
  ev >= 0
  ||
  let i = lnot ev in
  slab.handles.(i).live
  ||
  (free_slot slab i;
   false)

let create () =
  let slab =
    { handles = Array.make 16 dummy_handle; free = Array.init 16 Fun.id; n_free = 16 }
  in
  let keep = keep_event slab in
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    clock = Sim_time.zero;
    fired = 0;
    queue = Event_queue.create ~dummy:0 ();
    wheel = Timer_wheel.create ~keep ();
    slab;
    keep;
    next_seq = 0;
    dead = 0;
    handlers = Array.make 8 nop_handler;
    kind_srcs = Array.make 8 0;
    n_kinds = 0;
    cur_src = 0;
    compactions = 0;
    wheel_scheduled = 0;
    heap_scheduled = 0;
  }

let now t = t.clock

(* ---- dispatch table ---- *)

let register_kind t f =
  let k = t.n_kinds in
  if k > max_kind then invalid_arg "Scheduler.register_kind: too many kinds";
  if k = Array.length t.handlers then begin
    t.handlers <- double t.handlers nop_handler;
    t.kind_srcs <- double t.kind_srcs 0
  end;
  t.handlers.(k) <- f;
  t.kind_srcs.(k) <- fresh_src ();
  t.n_kinds <- k + 1;
  k

(* A component with several kinds (or the same logical event reachable
   through different kinds, like a wire delivery scheduled locally
   vs. injected across a PDES boundary) overrides the per-registration
   default so all its events share one rank. *)
let set_kind_src t ~kind ~src = t.kind_srcs.(kind) <- src

(* ---- enqueue ---- *)

let push_born t ~time_ns ~born_ns ~src ev =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if Timer_wheel.add t.wheel ~time_ns ~born_ns ~src ~seq ev then
    t.wheel_scheduled <- t.wheel_scheduled + 1
  else begin
    t.heap_scheduled <- t.heap_scheduled + 1;
    Event_queue.add_at_ns t.queue ~time_ns ~born_ns ~src ~seq ev
  end

(* every locally scheduled event is born at the scheduler's own clock —
   exactly the instant the serial engine would have inserted it at *)
let push t ~time_ns ~src ev =
  push_born t ~time_ns ~born_ns:(Sim_time.to_ns t.clock) ~src ev

(* a free slab slot, growing the slab when none is left *)
let alloc_slot slab =
  if slab.n_free = 0 then begin
    let n = Array.length slab.handles in
    slab.handles <- double slab.handles dummy_handle;
    slab.free <- double slab.free 0;
    for i = 0 to n - 1 do
      slab.free.(i) <- (2 * n) - 1 - i
    done;
    slab.n_free <- n
  end;
  let n = slab.n_free - 1 in
  slab.n_free <- n;
  slab.free.(n)

let schedule_at t ~time f =
  if Sim_time.(time < t.clock) then
    invalid_arg "Scheduler.schedule_at: time in the past";
  (* closures rank under the component whose handler scheduled them *)
  let src = t.cur_src in
  let h = { live = true; src; thunk = f } in
  let i = alloc_slot t.slab in
  t.slab.handles.(i) <- h;
  push t ~time_ns:(Sim_time.to_ns time) ~src (lnot i);
  h

let schedule t ~after f = schedule_at t ~time:(Sim_time.add t.clock after) f

(* the swap keeps [schedule_at] the one closure-handle allocation site *)
let schedule_as t ~src ~after f =
  let cur = t.cur_src in
  t.cur_src <- src;
  let h = schedule t ~after f in
  t.cur_src <- cur;
  h

(* the tagged event code of ([kind], [arg]), checking both fit *)
let tag t ~kind ~arg =
  if kind < 0 || kind >= t.n_kinds then invalid_arg "Scheduler: unknown event kind";
  if arg < 0 || arg > max_arg then invalid_arg "Scheduler: event arg out of range";
  kind lor (arg lsl kind_bits)

let schedule_tag t ~after ~kind ~arg =
  let time_ns = Sim_time.to_ns t.clock + Sim_time.span_ns after in
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.schedule_tag: time in the past";
  let ev = tag t ~kind ~arg in
  push t ~time_ns ~src:t.kind_srcs.(kind) ev

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
  let ev = tag t ~kind ~arg in
  push_born t ~time_ns ~born_ns ~src:t.kind_srcs.(kind) ev

(* ---- cancellation & compaction ---- *)

let is_pending h = h.live

(* Sweep dead handles out of both structures when they outnumber live
   ones (and are numerous enough to matter).  Compaction preserves every
   survivor's (time, born, src, seq), and pop order under a total order does not
   depend on heap layout, so this is invisible to the simulation. *)
let maybe_compact t =
  if t.dead > 64 && 2 * t.dead > Event_queue.size t.queue + Timer_wheel.size t.wheel
  then begin
    let swept =
      Event_queue.compact t.queue ~keep:t.keep + Timer_wheel.compact t.wheel
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
    let ev = Event_queue.pop_unsafe t.queue in
    if !Analysis.Audit.on then
      Analysis.Audit.note_clock ~clock_id:t.id ~now_ns:time_ns;
    t.clock <- Sim_time.of_ns time_ns;
    t.fired <- t.fired + 1;
    if ev >= 0 then begin
      let k = ev land max_kind in
      t.cur_src <- t.kind_srcs.(k);
      (* lint: allow alloc-partial-app — dispatch-table fetch returns the per-component closure registered once at construction; the arrow-result rule over-approximates *)
      t.handlers.(k) (ev lsr kind_bits)
    end
    else begin
      (* free the slot before running the thunk, which may schedule *)
      let i = lnot ev in
      let h = t.slab.handles.(i) in
      free_slot t.slab i;
      if h.live then begin
        h.live <- false;
        t.cur_src <- h.src;
        h.thunk ()
      end
      else t.dead <- t.dead - 1
    end;
    true
  end

let step t =
  prepare t;
  step_prepared t

(* allocation-free horizon drive, also the PDES barrier loop's (one call
   per barrier window, millions of windows per run): drains events with
   timestamps at most [until_ns]; the clock parks at the horizon when the
   next event lies beyond it, and an empty queue leaves the clock alone *)
let rec run_until t ~until_ns =
  prepare t;
  let time_ns = Event_queue.min_time_ns t.queue in
  if time_ns = max_int then ()
  else if time_ns > until_ns then t.clock <- Sim_time.of_ns until_ns
  else begin
    let (_ : bool) = step_prepared t in
    run_until t ~until_ns
  end

let run ?until t =
  run_until t
    ~until_ns:(match until with Some h -> Sim_time.to_ns h | None -> max_int)

(* ---- accounting ---- *)

let pending_events t = Event_queue.size t.queue + Timer_wheel.size t.wheel
let dead_events t = t.dead
let events_fired t = t.fired
let wheel_scheduled t = t.wheel_scheduled
let heap_scheduled t = t.heap_scheduled
let compactions t = t.compactions
let batched_events (_ : t) = 0
