type run_opts = { jobs_per_conn : int; seeds : int list }

let default_opts = { jobs_per_conn = 150; seeds = [ 1; 2; 3 ] }
let quick_opts = { jobs_per_conn = 12; seeds = [ 1 ] }

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

let websearch_run ~scheme ~params ~load ~jobs_per_conn =
  let scn = Scenario.build ~scheme params in
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

let run_point p =
  websearch_run ~scheme:p.pt_scheme ~params:p.pt_params ~load:p.pt_load
    ~jobs_per_conn:p.pt_jobs_per_conn

(* Every fan-out of independent runs (sweep points, incast seeds, chaos
   schemes) stays serial while the invariant auditor is on — its tables
   are global and unsynchronized — and under --shards >= 2, where each
   run already parallelizes inside its scenario and running several at
   once would nest domain pools. *)
let run_serially () = !Analysis.Audit.on || !Scenario.default_shards >= 2

let run_points_parallel ?domains points =
  (* every point owns a private scenario, scheduler and RNG, so points
     are embarrassingly parallel; results come back indexed by point, so
     the caller's aggregation order — and therefore every figure — is
     identical for 1 and N domains *)
  if run_serially () then Array.map run_point points
  else Domain_pool.run ?domains run_point points

let websearch_points ?domains ~opts specs =
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
  let results = run_points_parallel ?domains tasks in
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

let incast_run ~scheme ~params ~fanout ~total_bytes ~requests =
  (* the incast driver steps the scenario scheduler directly, so it
     always runs on the serial build whatever --shards says *)
  let scn = Scenario.build ~shards:1 ~scheme params in
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

let incast_point ~scheme ~params ~fanout ~total_bytes ~requests ~seeds =
  let run seed =
    let params = { params with Scenario.seed } in
    incast_run ~scheme ~params ~fanout ~total_bytes ~requests
  in
  let goodputs =
    (* per-seed incast runs are independent too; the left-to-right sum
       below keeps float association in seed order on any domain count *)
    if run_serially () then Array.map run (Array.of_list seeds)
    else Domain_pool.run run (Array.of_list seeds)
  in
  Array.fold_left ( +. ) 0.0 goodputs /. float_of_int (List.length seeds)

(* ----------------------- determinism matrix ------------------------ *)

(* run [f] with a setting changed, restoring it afterwards *)
let setting get set v f =
  let saved = get () in
  set v;
  Fun.protect ~finally:(fun () -> set saved) f

let domains n f = setting Domain_pool.default_domains Domain_pool.set_default_domains n f
let shards n f = setting (fun () -> !Scenario.default_shards) (( := ) Scenario.default_shards) n f

let check_stability ~label run =
  (* the memo key ignores the execution mode: a cell answered from an
     earlier cell's memo would compare nothing, so every cell starts cold *)
  let cell () =
    clear_memo ();
    run ()
  in
  let lifo = Analysis.Perturb.with_settings ~tb:Analysis.Perturb.Lifo ~salt:0 in
  let modes = [ ("domains-2", domains 2); ("shards-2", shards 2); ("tiebreak-lifo", lifo) ] in
  Fun.protect ~finally:clear_memo (fun () ->
      domains 1 (fun () ->
          shards 1 (fun () -> Analysis.Perturb.check_schedule_stability ~modes ~label ~run:cell ())))
