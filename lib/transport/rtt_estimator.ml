(* the two running estimates live in their own all-float record: OCaml
   lays such a record out as a flat float block, so the two writes per
   RTT sample store unboxed doubles in place instead of boxing fresh
   floats (which mutable float fields of the mixed [t] record would) *)
type ests = { mutable srtt_ns : float; mutable rttvar_ns : float }

type t = { e : ests; mutable have_sample : bool; mutable backoff_mult : int }

(* RTO bounds in ns: a 10 ms floor (the datacenter testbed setting) and
   a 2 s ceiling *)
let min_rto = Sim_time.span_ns (Sim_time.ms 10)
let max_rto = Sim_time.span_ns (Sim_time.sec 2.0)

let create () =
  { e = { srtt_ns = 0.0; rttvar_ns = 0.0 }; have_sample = false; backoff_mult = 1 }

let sample t rtt =
  let r = float_of_int (Sim_time.span_ns rtt) in
  let e = t.e in
  if not t.have_sample then begin
    e.srtt_ns <- r;
    e.rttvar_ns <- r /. 2.0;
    t.have_sample <- true
  end
  else begin
    let beta = 0.25 and alpha = 0.125 in
    e.rttvar_ns <- ((1.0 -. beta) *. e.rttvar_ns) +. (beta *. abs_float (e.srtt_ns -. r));
    e.srtt_ns <- ((1.0 -. alpha) *. e.srtt_ns) +. (alpha *. r)
  end;
  t.backoff_mult <- 1

let rto t =
  let base =
    if not t.have_sample then min_rto * 20 (* conservative initial RTO *)
    else int_of_float (t.e.srtt_ns +. (4.0 *. t.e.rttvar_ns))
  in
  (* clamp to the floor before backing off, as Linux does: backoff must be
     observable even when SRTT-derived RTO sits below the minimum *)
  let scaled = Int.max min_rto base * t.backoff_mult in
  Sim_time.span_of_ns (Int.min max_rto scaled)

let srtt t ~default =
  if t.have_sample then Sim_time.span_of_ns (int_of_float t.e.srtt_ns) else default

let pto t =
  if t.have_sample then
    Sim_time.add_span
      (Sim_time.mul_span (srtt t ~default:Sim_time.zero_span) 2.0)
      (Sim_time.us 100)
  else Sim_time.ms 1

let backoff t = t.backoff_mult <- Int.min (t.backoff_mult * 2) 64
