let alpha = 0.1
let tick_ns = float_of_int (Sim_time.span_ns (Sim_time.us 10))

type t = {
  sched : Scheduler.t;
  (* the running byte count lives in a one-element float array: a
     mutable float field of this mixed record would box a fresh float on
     every [observe]/[decay] write (two per packet per hop), while a
     float-array store is unboxed *)
  x : float array;
  mutable last_decay : Sim_time.t;
  capacity_bytes_per_tau : float;
}

let create ~rate_bps sched =
  let tau_ns = tick_ns /. alpha in
  {
    sched;
    x = [| 0.0 |];
    last_decay = Scheduler.now sched;
    capacity_bytes_per_tau = rate_bps /. 8.0 *. (tau_ns /. 1e9);
  }

let decay t now =
  let elapsed = float_of_int (Sim_time.span_ns (Sim_time.diff now t.last_decay)) in
  let ticks = elapsed /. tick_ns in
  if ticks >= 1.0 then begin
    let whole = floor ticks in
    (* lint: allow alloc-boxed-float — float-array read consumed by float arithmetic stays unboxed; the float-result rule over-approximates *)
    t.x.(0) <- t.x.(0) *. ((1.0 -. alpha) ** whole);
    (* advance last_decay by the whole number of ticks applied, keeping the
       fractional remainder for the next call *)
    let advanced = int_of_float (whole *. tick_ns) in
    t.last_decay <- Sim_time.add t.last_decay (Sim_time.span_of_ns advanced);
    if t.x.(0) < 1e-6 then t.x.(0) <- 0.0
  end

let observe_at t ~now_ns ~bytes_len =
  decay t (Sim_time.of_ns now_ns);
  (* lint: allow alloc-boxed-float — unboxed float-array read, as in decay *)
  t.x.(0) <- t.x.(0) +. float_of_int bytes_len

let observe t ~bytes_len =
  observe_at t ~now_ns:(Sim_time.to_ns (Scheduler.now t.sched)) ~bytes_len

let utilization t =
  decay t (Scheduler.now t.sched);
  (* lint: allow alloc-boxed-float — unboxed float-array read, as in decay *)
  t.x.(0) /. t.capacity_bytes_per_tau
