(* Conservative time-window PDES coordinator.

   The fabric is partitioned into shards, each owning a private
   {!Scheduler}; a separate *global* scheduler carries fabric-wide
   control events (fault plans, reconvergence).  Every cross-shard
   interaction travels over a link whose propagation delay is at least
   [window_ns], so an event fired at time [s] in one shard cannot affect
   another shard before [s + window_ns].  The barrier loop exploits that
   lookahead: per window it computes

     barrier = min (m + window_ns - 1, g)

   where [m] is the earliest pending event over all schedulers and [g]
   the global scheduler's next event, runs every shard scheduler up to
   [barrier] (inclusive) in parallel across the domain pool, then runs
   the global scheduler up to the same horizon (fault mutations execute
   here, while every shard is quiescent), and finally drains the
   boundary-event exchange buffers.  Boundary deliveries generated in a
   window carry timestamps strictly beyond its barrier, so injection
   never schedules into the past, and each exchange buffer is drained in
   a fixed order so injection order is deterministic at any width.

   Clamping the barrier to [g] means global events never interleave with
   a shard's window: a fault at time [f] executes only after every shard
   has fired its events up to [f] and before any fires an event past
   [f].  That order is not the serial engine's, which ranks
   same-instant events by born time, and the difference is a known hole
   in width invariance: a flap with a sub-window period ties its
   transitions with link events born later, and the digests move.
   [clove-sim chaos --audit --faults "flap s2-l2b period=1us duty=0.5
   until=61ms @60ms" --jobs 150] prints Clove-ECN 8c07a2ad..., ECMP
   76068c10... serially but 72c1e202..., e0e6060d... at [--shards 2]
   (0 audit violations either way).  The default chaos plan and the
   4 ms CI flap produce no such tie.

   The shard tasks run on a persistent {!Domain_pool} ([width] domains,
   one barrier [map] per window).  Width 1 executes the same loop
   serially on the calling domain. *)

type t = {
  scheds : Scheduler.t array;
  global : Scheduler.t;
  window_ns : int;
  exchange : unit -> int;
  mutable pool : Domain_pool.t option; (* spawned on first drive *)
  mutable barrier_ns : int; (* current window horizon, read by workers *)
  mutable run_to_barrier : Scheduler.t -> unit; (* one closure, every window *)
  mutable windows : int;
  mutable stalls : int;
  mutable boundary_events : int;
}

(* The shard worker, clove-check's PDES parallel root: handed to
   [Domain_pool.map] as one persistent closure (the partial application
   in [create]) and re-entered every window on the pool's domains.  It
   may only touch state owned by the shard scheduler it is passed —
   [barrier_ns] is read-only during a window (the coordinator writes it
   strictly between windows, with the pool quiescent). *)
let run_to_barrier_task t sched = Scheduler.run_until sched ~until_ns:t.barrier_ns

let create ~scheds ~global ~window_ns ~exchange () =
  if Array.length scheds = 0 then invalid_arg "Shard.create: no shards";
  if window_ns <= 0 then
    invalid_arg "Shard.create: lookahead window must be positive";
  let t =
    {
      scheds;
      global;
      window_ns;
      exchange;
      pool = None;
      barrier_ns = 0;
      run_to_barrier = (fun _ -> ());
      windows = 0;
      stalls = 0;
      boundary_events = 0;
    }
  in
  (* one persistent task closure: per window only [barrier_ns] changes *)
  t.run_to_barrier <- run_to_barrier_task t;
  t

let window_ns t = t.window_ns
let windows t = t.windows
let stalls t = t.stalls
let boundary_events t = t.boundary_events

let pool t =
  match t.pool with
  | Some p -> p
  | None ->
    (* lint: allow alloc-option — lazy pool construction runs once per simulation *)
    let p = Domain_pool.create ~domains:(Array.length t.scheds) () in
    t.pool <- Some p;
    p

let run_window t =
  if Array.length t.scheds > 1 then
    let (_ : unit array) = Domain_pool.map (pool t) t.run_to_barrier t.scheds in
    ()
  else Array.iter t.run_to_barrier t.scheds

(* the barrier loop below is closure-free (recursive array scans instead
   of fold/iter, [Scheduler.run_until] instead of the optional-boxing
   [run ?until]): it runs once per window and windows number in the
   millions on long scenarios *)
let rec min_next_ns t i acc =
  if i = Array.length t.scheds then acc
  else min_next_ns t (i + 1) (min acc (Scheduler.next_time_ns t.scheds.(i)))

let rec count_stalls t ~barrier i =
  if i < Array.length t.scheds then begin
    if Scheduler.next_time_ns t.scheds.(i) > barrier then
      t.stalls <- t.stalls + 1;
    count_stalls t ~barrier (i + 1)
  end

(* one window: every shard, then the global scheduler, to [barrier] *)
let window t ~barrier =
  t.barrier_ns <- barrier;
  count_stalls t ~barrier 0;
  run_window t;
  Scheduler.run_until t.global ~until_ns:barrier;
  t.boundary_events <- t.boundary_events + t.exchange ();
  t.windows <- t.windows + 1

(* frontier jump: a window starts at the earliest pending event [m],
   skipping quiescent gaps (warmup, inter-arrival lulls) *)
let next_barrier t =
  let g = Scheduler.next_time_ns t.global in
  let m = min_next_ns t 0 g in
  if m = max_int then max_int else min (m + t.window_ns - 1) g

let drive t ~finished =
  while not (finished ()) do
    let barrier = next_barrier t in
    if barrier = max_int then
      failwith "Shard.drive: every scheduler is idle but the run is unfinished";
    window t ~barrier
  done

let drive_until t ~until =
  let until_ns = Sim_time.to_ns until in
  while min_next_ns t 0 (Scheduler.next_time_ns t.global) <= until_ns do
    window t ~barrier:(min (next_barrier t) until_ns)
  done

let shutdown t =
  match t.pool with
  | None -> ()
  | Some p ->
    Domain_pool.shutdown p;
    t.pool <- None
