type run_opts = { jobs_per_conn : int; seeds : int list; mode : Run_mode.t }

let default_opts = { jobs_per_conn = 150; seeds = [ 1; 2; 3 ]; mode = Run_mode.default }
let quick_opts = { default_opts with jobs_per_conn = 12; seeds = [ 1 ] }

let build_conns scn =
  (* each client opens [conns_per_client] persistent connections, each to a
     uniformly chosen server (Section 5's communication model) *)
  let rng = Scenario.rng scn in
  let servers = Scenario.servers scn in
  let per_client = (Scenario.params scn).Scenario.conns_per_client in
  Array.concat
    (Array.to_list
       (Array.map
          (fun client ->
            Array.init per_client (fun j ->
                (* server choice comes from a stream named after the
                   (client, slot) pair, so adding clients or connections
                   never re-deals another connection's server *)
                let r =
                  Rng.split_named rng
                    (Printf.sprintf "conn:%d:%d" (Host.id client) j)
                in
                let server = Rng.pick r servers in
                Scenario.connect scn ~src:client ~dst:server))
          (Scenario.clients scn)))

let websearch_run ~mode ~scheme ~params ~load ~jobs_per_conn =
  let scn = Scenario.build ~mode ~scheme params in
  let conns = build_conns scn in
  let cfg =
    {
      Workload.Websearch.load;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let fct = Scenario.run_websearch scn ~rng:(Scenario.rng scn) ~conns cfg in
  Scenario.quiesce scn;
  fct

(* Several figures slice the same sweep differently (fig4c and fig5a/b/c
   are one set of runs in the paper too), so points are memoized on their
   full configuration.  The key is the configuration tuple itself —
   [Scenario.params] is pure data, so structural equality in the table
   disambiguates hash-bucket collisions; an earlier version keyed on the
   output of [Hashtbl.hash_param], which silently aliased any two
   configurations that happened to share a hash. *)
type memo_key = Scenario.scheme * Scenario.params * float * int * int list

let memo : (memo_key, Workload.Fct_stats.t) Hashtbl.t = Hashtbl.create 64

let clear_memo () = Hashtbl.reset memo

(* ---------------------- parallel experiment engine ----------------- *)

type point = {
  pt_scheme : Scenario.scheme;
  pt_params : Scenario.params;  (* the seed to run is [pt_params.seed] *)
  pt_load : float;
  pt_jobs_per_conn : int;
}

let run_point mode p =
  websearch_run ~mode ~scheme:p.pt_scheme ~params:p.pt_params ~load:p.pt_load
    ~jobs_per_conn:p.pt_jobs_per_conn

(* Every fan-out of independent runs (sweep points, incast seeds, chaos
   schemes) spans the mode's domains, except under --shards >= 2, where
   each run already parallelizes inside its scenario and running several
   at once would nest domain pools.  Each fan-out hands its task to
   [Domain_pool.run] itself, so clove-check sees it as a parallel root. *)
let fan_width mode = Run_mode.(if mode.shards >= 2 then 1 else mode.domains)

let run_points_parallel ~mode points =
  (* every point owns a private scenario, scheduler and RNG, so points
     are embarrassingly parallel; results come back indexed by point, so
     the caller's aggregation order — and therefore every figure — is
     identical for 1 and N domains *)
  Domain_pool.run ~domains:(fan_width mode) (run_point mode) points

let websearch_points ~opts specs =
  (* expand each not-yet-memoized spec into one task per seed, fan the
     tasks across domains, then merge per spec in seed order — exactly
     the serial fold — and fill the memo from this (single) domain *)
  let key_of (scheme, params, load) =
    (scheme, params, load, opts.jobs_per_conn, opts.seeds)
  in
  let seen = Hashtbl.create 16 in
  let pending =
    List.filter
      (fun spec ->
        let key = key_of spec in
        if Hashtbl.mem memo key || Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      specs
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (scheme, params, load) ->
           List.map
             (fun seed ->
               {
                 pt_scheme = scheme;
                 pt_params = { params with Scenario.seed };
                 pt_load = load;
                 pt_jobs_per_conn = opts.jobs_per_conn;
               })
             opts.seeds)
         pending)
  in
  let results = run_points_parallel ~mode:opts.mode tasks in
  let idx = ref 0 in
  List.iter
    (fun spec ->
      let fct =
        List.fold_left
          (fun acc _seed ->
            let r = results.(!idx) in
            incr idx;
            Workload.Fct_stats.merge acc r)
          (Workload.Fct_stats.create ())
          opts.seeds
      in
      Hashtbl.replace memo (key_of spec) fct)
    pending;
  List.map
    (fun spec ->
      match Hashtbl.find_opt memo (key_of spec) with
      | Some fct -> fct
      | None -> assert false (* every spec was memoized above *))
    specs

let incast_run ~mode ~scheme ~params ~fanout ~total_bytes ~requests =
  (* the incast driver steps the scenario scheduler directly, so it
     always runs on the serial build whatever --shards says *)
  let scn = Scenario.build ~mode ~shards:1 ~scheme params in
  let client = (Scenario.clients scn).(0) in
  let submits =
    Array.map
      (fun server -> Scenario.connect scn ~src:server ~dst:client)
      (Scenario.servers scn)
  in
  let result =
    Workload.Incast.run ~sched:(Scenario.sched scn) ~rng:(Scenario.rng scn)
      ~server_submits:submits ~fanout ~total_bytes ~requests
      ~start_at:(Scenario.warmup scn)
  in
  Scenario.quiesce scn;
  result.Workload.Incast.goodput_bps

let incast_point ~mode ~scheme ~params ~fanout ~total_bytes ~requests ~seeds =
  let run seed =
    let params = { params with Scenario.seed } in
    incast_run ~mode ~scheme ~params ~fanout ~total_bytes ~requests
  in
  (* per-seed incast runs are independent too; the left-to-right sum
     below keeps float association in seed order on any domain count *)
  let goodputs = Domain_pool.run ~domains:(fan_width mode) run (Array.of_list seeds) in
  Array.fold_left ( +. ) 0.0 goodputs /. float_of_int (List.length seeds)

(* ----------------------- determinism matrix ------------------------ *)

let matrix_modes =
  [
    ("domains-2", fun m -> { m with Run_mode.domains = 2 });
    ("shards-2", fun m -> { m with Run_mode.shards = 2 });
    ("tiebreak-lifo", fun m -> { m with Run_mode.tiebreak = Event_queue.Lifo });
  ]

let check_stability run =
  (* the memo key ignores the execution mode: a cell answered from an
     earlier cell's memo would compare nothing, so every cell starts cold *)
  let cell mode =
    clear_memo ();
    run mode
  in
  Fun.protect ~finally:clear_memo (fun () ->
      Run_mode.check_stability ~modes:matrix_modes cell)
