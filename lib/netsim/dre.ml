type t = {
  sched : Scheduler.t;
  alpha : float;
  tick_ns : float;
  (* the running byte count lives in a one-element float array: a
     mutable float field of this mixed record would box a fresh float on
     every [observe]/[decay] write (two per packet per hop), while a
     float-array store is unboxed *)
  x : float array;
  mutable last_decay : Sim_time.t;
  capacity_bytes_per_tau : float;
}

let create ?(alpha = 0.1) ?(tick = Sim_time.us 10) ~rate_bps sched =
  if alpha <= 0.0 || alpha >= 1.0 then invalid_arg "Dre.create: alpha must be in (0,1)";
  let tick_ns = float_of_int (Sim_time.span_ns tick) in
  let tau_ns = tick_ns /. alpha in
  {
    sched;
    alpha;
    tick_ns;
    x = [| 0.0 |];
    last_decay = Scheduler.now sched;
    capacity_bytes_per_tau = rate_bps /. 8.0 *. (tau_ns /. 1e9);
  }

let decay t =
  let now = Scheduler.now t.sched in
  let elapsed = float_of_int (Sim_time.span_ns (Sim_time.diff now t.last_decay)) in
  let ticks = elapsed /. t.tick_ns in
  if ticks >= 1.0 then begin
    let whole = floor ticks in
    (* lint: allow alloc-boxed-float — float-array read consumed by float arithmetic stays unboxed; the float-result rule over-approximates *)
    t.x.(0) <- t.x.(0) *. ((1.0 -. t.alpha) ** whole);
    (* advance last_decay by the whole number of ticks applied, keeping the
       fractional remainder for the next call *)
    let advanced = int_of_float (whole *. t.tick_ns) in
    t.last_decay <- Sim_time.add t.last_decay (Sim_time.span_of_ns advanced);
    if t.x.(0) < 1e-6 then t.x.(0) <- 0.0
  end

let observe t ~bytes_len =
  decay t;
  (* lint: allow alloc-boxed-float — unboxed float-array read, as in decay *)
  t.x.(0) <- t.x.(0) +. float_of_int bytes_len

let utilization t =
  decay t;
  (* lint: allow alloc-boxed-float — unboxed float-array read, as in decay *)
  t.x.(0) /. t.capacity_bytes_per_tau
