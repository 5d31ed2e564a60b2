type config = {
  load : float;
  bisection_bps : float;
  jobs_per_conn : int;
  size_dist : Stats.Cdf.t;
  start_at : Sim_time.span;
}

type submit = bytes:int -> on_complete:(unit -> unit) -> unit

let check_load load =
  if load > 0.0 && load <= 2.0 then Ok ()
  else Error (Printf.sprintf "load %g is outside (0, 2]" load)

let arrival_rate_per_conn cfg ~conns =
  (match check_load cfg.load with
  | Ok () -> ()
  | Error e -> invalid_arg ("Websearch: " ^ e));
  let mean_bits = Flow_size_dist.mean_bytes cfg.size_dist *. 8.0 in
  cfg.load *. cfg.bisection_bps /. float_of_int conns /. mean_bits

(* Arm every connection's Poisson arrival process without driving the
   scheduler(s) — the PDES coordinator (or the serial [run] loop below)
   owns the drive.  Each connection lives entirely on [sched_of_conn i]
   and records into [stats_of_conn i] / decrements [remaining_of_conn i],
   so a sharded build can hand each connection its shard's scheduler and
   a shard-private stats sink with no cross-shard mutation. *)
let arm ~sched_of_conn ~stats_of_conn ~remaining_of_conn ~rng ~conns cfg =
  let n = Array.length conns in
  if n = 0 then invalid_arg "Websearch: no connections";
  if cfg.jobs_per_conn <= 0 then invalid_arg "Websearch: jobs_per_conn <= 0";
  let lambda = arrival_rate_per_conn cfg ~conns:n in
  let mean_gap_sec = 1.0 /. lambda in
  Array.iteri
    (fun i submit ->
      let sched = sched_of_conn i in
      let stats = stats_of_conn i in
      let remaining = remaining_of_conn i in
      let submit_job conn_rng submit =
        let size = Flow_size_dist.sample cfg.size_dist conn_rng in
        let start = Scheduler.now sched in
        submit ~bytes:size ~on_complete:(fun () ->
            Fct_stats.record stats ~size ~start ~finish:(Scheduler.now sched);
            decr remaining)
      in
      (* a named stream per connection: registration order and connection
         count never shift another connection's arrival process *)
      let conn_rng = Rng.split_named rng ("conn:" ^ string_of_int i) in
      let rec arrive issued =
        if issued < cfg.jobs_per_conn then begin
          let gap = Sim_time.sec (Rng.exponential conn_rng ~mean:mean_gap_sec) in
          Scheduler.schedule sched ~after:gap (fun () ->
              submit_job conn_rng submit;
              arrive (issued + 1))
        end
      in
      (* shift the whole process past the warmup *)
      Scheduler.schedule sched ~after:cfg.start_at (fun () -> arrive 0))
    conns

let run ~sched ~rng ~conns cfg =
  let n = Array.length conns in
  let stats = Fct_stats.create () in
  let remaining = ref (n * cfg.jobs_per_conn) in
  arm
    ~sched_of_conn:(fun _ -> sched)
    ~stats_of_conn:(fun _ -> stats)
    ~remaining_of_conn:(fun _ -> remaining)
    ~rng ~conns cfg;
  while !remaining > 0 && Scheduler.step sched do
    ()
  done;
  if !remaining > 0 then
    failwith
      (Printf.sprintf "Websearch.run: simulation stalled with %d jobs outstanding"
         !remaining);
  stats
