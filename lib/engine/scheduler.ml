(* Discrete-event scheduler: one timing wheel, with a defunctionalized
   (zero-allocation) path for steady-state events.

   One store holds pending events: a hierarchical {!Timer_wheel}, whose
   sequence numbers come from a scheduler-owned counter.  When its
   sorted run is empty the wheel loads whole windows into it before the
   clock can reach them, and each step dispatches the run's head, so
   pop order is exactly that of a single binary heap under the (time,
   born, src, seq) total order.  An event behind the wheel's frontier is
   seated straight into the run, one past its ~1.07 s horizon parked
   until the frontier nears it.  [born] is the insertion instant and
   [src] the owning component's construction-order id; together they
   make same-timestamp tie-breaking shard-invariant under PDES (see
   {!Event_queue.lt}).

   A pending event is one immediate [int], so the wheel holds no
   pointer:
   - a tagged event (>= 0) packs its handler kind and operand as
     [kind lor (arg lsl kind_bits)]: a component registers a handler
     kind once at construction ([register_kind]) and then schedules
     (kind, arg) pairs ([schedule_tag]);
   - a closure event (< 0) is [lnot i], where slot [i] of the
     scheduler's slab holds its thunk and rank until it fires.

   Nothing is ever cancelled: every queued event fires.  A component
   that moves or drops a deadline holds a {!timer} — a row of ints in
   the scheduler, operated on by [arm]/[disarm] — whose events are
   tagged with the reserved kind [timer_kind].  A timer keeps one
   "carrier": the event it queued last, known by its sequence number.
   Arming queues a new carrier unless the queued one fires strictly
   before the new deadline; a carrier that fires before the deadline
   queues the next one at the deadline, born at the arm instant, so the
   event that runs the handler has exactly the key (deadline, arm
   instant, rank) a freshly scheduled event would have had.  Any other
   event of the timer is stale and does nothing. *)

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

(* closure events by slot: [thunks.(i)] runs ranked under [srcs.(i)];
   [free] is a stack of the free slot indices *)
type slab = {
  mutable thunks : (unit -> unit) array;
  mutable srcs : int array;
  mutable free : int array;
  mutable n_free : int;
}

(* A timer is a row of [row] ints in [timers] (its handler in
   [timer_fire]), so creating one allocates nothing beyond amortized
   column growth.  The row's fields, at these offsets: *)
let row = 7
let r_src = 0 (* rank fixed at creation, or -1: the arming component's *)
let r_arg = 1 (* the handler's operand *)
let r_deadline = 2 (* armed key: deadline (-1 when disarmed), *)
let r_born = 3 (*   arm instant, *)
let r_rank = 4 (*   and rank *)
let r_carrier = 5 (* seq of the carrier, or -1 when none is queued *)
let r_carrier_ns = 6 (* the carrier's time *)

(* the reserved kind of timer events; the arg is the timer *)
let timer_kind = 0

type violation = { invariant : string; detail : string }

type timer = int

type t = {
  audit : bool; (* the run mode's: guards every check *)
  mutable clock : Sim_time.t;
  mutable fired : int;
  wheel : Timer_wheel.t;
  slab : slab;
  mutable next_seq : int; (* the residual tie-break: events scheduled so far *)
  mutable handlers : (int -> unit) array;
  mutable kind_srcs : int array; (* component id per registered kind *)
  mutable n_kinds : int;
  mutable cur_src : int; (* component id of the dispatching event; 0 at setup *)
  mutable cur_seq : int; (* seq of the dispatching event *)
  (* the dispatching event's popped born and src (its time is [clock]);
     [max_int] born outside a dispatch *)
  mutable cur_born : int;
  mutable cur_key_src : int;
  mutable timers : int array;
  mutable timer_fire : (int -> unit) array;
  mutable n_timers : int;
  mutable heap_scheduled : int; (* events not staged in a window *)
  (* audited runs: the latest dispatch time, and the first [max_kept]
     of the [n_violations] recorded, newest first *)
  mutable watermark_ns : int;
  mutable violations : violation list;
  mutable n_violations : int;
}

let max_kept = 100

let nop () = ()
let nop_handler (_ : int) = ()

(* [a] doubled, its entries kept: the one growth step of the slab, the
   dispatch table and the timer columns *)
let double a fill =
  let n = Array.length a in
  (* amortized doubling: O(log n) times per scheduler, never in steady state — lint: allow alloc-array *)
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

let now t = t.clock
let audit t = t.audit

let record_violation t ~invariant ~detail =
  t.n_violations <- t.n_violations + 1;
  if t.n_violations <= max_kept then
    t.violations <- { invariant; detail } :: t.violations

let violations t = List.rev t.violations
let violation_count t = t.n_violations

(* dispatch times never decrease *)
let check_clock t time_ns =
  if time_ns < t.watermark_ns then
    record_violation t ~invariant:"monotonic-time"
      ~detail:(Printf.sprintf "clock moved %dns -> %dns" t.watermark_ns time_ns);
  t.watermark_ns <- time_ns

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
  if not (Timer_wheel.add t.wheel ~time_ns ~born_ns ~src ~seq ev) then
    t.heap_scheduled <- t.heap_scheduled + 1

(* every locally scheduled event is born at the scheduler's own clock —
   exactly the instant the serial engine would have inserted it at *)
let push t ~time_ns ~src ev =
  push_born t ~time_ns ~born_ns:(Sim_time.to_ns t.clock) ~src ev

(* a free slab slot, growing the slab when none is left *)
let alloc_slot slab =
  if slab.n_free = 0 then begin
    let n = Array.length slab.thunks in
    slab.thunks <- double slab.thunks nop;
    slab.srcs <- double slab.srcs 0;
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
  let i = alloc_slot t.slab in
  t.slab.thunks.(i) <- f;
  t.slab.srcs.(i) <- t.cur_src;
  push t ~time_ns:(Sim_time.to_ns time) ~src:t.cur_src (lnot i)

let schedule t ~after f = schedule_at t ~time:(Sim_time.add t.clock after) f

(* the tagged event code of ([kind], [arg]), checking both fit *)
let tag t ~kind ~arg =
  if kind <= timer_kind || kind >= t.n_kinds then
    invalid_arg "Scheduler: unknown event kind";
  if arg < 0 || arg > max_arg then invalid_arg "Scheduler: event arg out of range";
  kind lor (arg lsl kind_bits)

let schedule_tag t ~after ~kind ~arg =
  let time_ns = Sim_time.to_ns t.clock + Sim_time.span_ns after in
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.schedule_tag: time in the past";
  let ev = tag t ~kind ~arg in
  push t ~time_ns ~src:t.kind_srcs.(kind) ev

(* An event with an explicit tie-break rank: a PDES boundary delivery
   keeps the sending shard's insertion instant, so a same-timestamp tie
   against locally scheduled events resolves the way the serial engine's
   single insertion clock would have; a link's delivery into a switch is
   ranked at its wire-delivery instant, ahead of the clock.  [born_ns]
   may lie in the past or ahead, but the event time must not be past. *)
let inject_tag t ~time_ns ~born_ns ~kind ~arg =
  if time_ns < Sim_time.to_ns t.clock then
    invalid_arg "Scheduler.inject_tag: time in the past";
  if born_ns > time_ns then invalid_arg "Scheduler.inject_tag: born after fire";
  let ev = tag t ~kind ~arg in
  push_born t ~time_ns ~born_ns ~src:t.kind_srcs.(kind) ev

(* ---- timers ---- *)

let timer t ?src ~arg fire =
  let id = t.n_timers in
  if id = Array.length t.timer_fire then begin
    t.timers <- double t.timers 0;
    t.timer_fire <- double t.timer_fire nop_handler
  end;
  let o = id * row in
  t.timers.(o + r_src) <- (match src with Some c -> c | None -> -1);
  t.timers.(o + r_arg) <- arg;
  t.timers.(o + r_deadline) <- -1;
  t.timers.(o + r_carrier) <- -1;
  t.timer_fire.(id) <- fire;
  t.n_timers <- id + 1;
  id

(* queue the timer's carrier at its armed key *)
let queue_carrier t id =
  let tm = t.timers and o = id * row in
  let time_ns = tm.(o + r_deadline) in
  tm.(o + r_carrier) <- t.next_seq;
  tm.(o + r_carrier_ns) <- time_ns;
  push_born t ~time_ns ~born_ns:tm.(o + r_born) ~src:tm.(o + r_rank)
    (timer_kind lor (id lsl kind_bits))

let arm t id ~after =
  let now_ns = Sim_time.to_ns t.clock in
  let deadline = now_ns + Sim_time.span_ns after in
  if deadline < now_ns then invalid_arg "Scheduler.arm: deadline in the past";
  let tm = t.timers and o = id * row in
  tm.(o + r_deadline) <- deadline;
  tm.(o + r_born) <- now_ns;
  tm.(o + r_rank) <- (if tm.(o + r_src) >= 0 then tm.(o + r_src) else t.cur_src);
  (* a carrier firing strictly earlier re-queues itself at the deadline *)
  if tm.(o + r_carrier) < 0 || tm.(o + r_carrier_ns) >= deadline then
    queue_carrier t id

let disarm t id = t.timers.((id * row) + r_deadline) <- -1
let armed t id = t.timers.((id * row) + r_deadline) >= 0

(* The handler of [timer_kind].  Only the carrier acts.  Every arm after
   it was queued either queued a newer carrier or found it strictly
   earlier than the new deadline, so it carries the armed key exactly
   when it fires at the deadline. *)
let fire_timer t id =
  let tm = t.timers and o = id * row in
  if tm.(o + r_carrier) = t.cur_seq then begin
    tm.(o + r_carrier) <- -1;
    let deadline = tm.(o + r_deadline) in
    if deadline = Sim_time.to_ns t.clock then begin
      tm.(o + r_deadline) <- -1;
      t.cur_src <- tm.(o + r_rank);
      t.timer_fire.(id) tm.(o + r_arg)
    end
    else if deadline >= 0 then queue_carrier t id
  end

let create ?(mode = Run_mode.default) () =
  let t =
    {
      audit = mode.Run_mode.audit;
      clock = Sim_time.zero;
      fired = 0;
      wheel = Timer_wheel.create ~tiebreak:mode.Run_mode.tiebreak;
      slab =
        {
          thunks = Array.make 16 nop;
          srcs = Array.make 16 0;
          free = Array.init 16 Fun.id;
          n_free = 16;
        };
      next_seq = 0;
      handlers = Array.make 8 nop_handler;
      kind_srcs = Array.make 8 0;
      n_kinds = 1;
      cur_src = 0;
      cur_seq = -1;
      cur_born = max_int;
      cur_key_src = 0;
      timers = Array.make (8 * row) 0;
      timer_fire = Array.make 8 nop_handler;
      n_timers = 0;
      heap_scheduled = 0;
      watermark_ns = 0;
      violations = [];
      n_violations = 0;
    }
  in
  (* the timer kind draws no component id: a timer event ranks under its
     timer's armed rank *)
  t.handlers.(timer_kind) <- fire_timer t;
  t

(* ---- dequeue ---- *)

(* Refill the wheel's run once it is empty: afterwards the run's head,
   if any, is the earliest pending event. *)
let prepare t = Timer_wheel.load t.wheel

let next_time_ns t =
  prepare t;
  if Timer_wheel.run_empty t.wheel then max_int else Timer_wheel.head_time_ns t.wheel

(* run event [ev], popped with key (time_ns, cur_born, cur_key_src,
   cur_seq) *)
let dispatch t ~time_ns ev =
  if t.audit then check_clock t time_ns;
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
    let slab = t.slab in
    let f = slab.thunks.(i) in
    t.cur_src <- slab.srcs.(i);
    slab.thunks.(i) <- nop;
    slab.free.(slab.n_free) <- i;
    slab.n_free <- slab.n_free + 1;
    f ()
  end;
  t.cur_born <- max_int

(* [step] minus the refill, for drivers that just called [prepare] as
   part of their own horizon check ([run] / [run_until]): fusing the
   two saves a second refill decision per event. *)
let step_prepared t =
  let w = t.wheel in
  if Timer_wheel.run_empty w then false
  else begin
    let time_ns = Timer_wheel.head_time_ns w in
    t.cur_seq <- Timer_wheel.head_seq w;
    t.cur_born <- Timer_wheel.head_born w;
    t.cur_key_src <- Timer_wheel.head_src w;
    dispatch t ~time_ns (Timer_wheel.pop w);
    true
  end

(* Outside a dispatch the popped key reads (clock, max_int, _), so an
   event at the clock counts as before it: the clock's instant has run,
   as after [run_until], or as for a shard scheduler while the PDES
   global scheduler dispatches a fault at the barrier. *)
let before_dispatching t ~time_ns ~born_ns ~src =
  let now_ns = Sim_time.to_ns t.clock in
  time_ns < now_ns
  || time_ns = now_ns
     && (born_ns < t.cur_born || (born_ns = t.cur_born && src < t.cur_key_src))

let step t =
  prepare t;
  step_prepared t

(* allocation-free horizon drive, also the PDES barrier loop's (one call
   per barrier window, millions of windows per run): drains events with
   timestamps at most [until_ns]; the clock parks at the horizon when the
   next event lies beyond it and the horizon lies ahead of the clock, and
   an empty queue leaves the clock alone *)
let rec run_until t ~until_ns =
  let time_ns = next_time_ns t in
  if time_ns = max_int then ()
  else if time_ns > until_ns then begin
    if until_ns > Sim_time.to_ns t.clock then t.clock <- Sim_time.of_ns until_ns
  end
  else begin
    let (_ : bool) = step_prepared t in
    run_until t ~until_ns
  end

let run ?until t =
  run_until t
    ~until_ns:(match until with Some h -> Sim_time.to_ns h | None -> max_int)

(* ---- accounting ---- *)

let pending_events t = Timer_wheel.size t.wheel
let events_fired t = t.fired
let wheel_scheduled t = t.next_seq - t.heap_scheduled
let heap_scheduled t = t.heap_scheduled
let compactions (_ : t) = 0
let batched_events (_ : t) = 0
