(* Benchmark probe.

   One process runs one input of one workload (once, or [--repeat]
   times), or the per-call microbenchmarks, and prints one JSON object
   of raw measurements on stdout.  run.py starts a fresh probe each time
   and derives every named metric from these values.

   The simulator is measured from outside: its public entry points are
   timed (Scenario.build/connect and the fault arm as set-up;
   Scenario.run_websearch or Workload.Incast.run as the run) and each
   layer's public counters are read after the run.

     probe.exe run WORKLOAD [--seed N] [--scale F] [--shards K] [--repeat R]
       [--trace]
     probe.exe micro [--quota SECONDS] *)

open Engine
open Netsim
open Experiments
module J = Analysis.Json_out

(* host time of the harness itself — lint: allow sema-wall-clock *)
let now = Unix.gettimeofday

(* ------------------------------ workloads --------------------------- *)

type prepared = {
  scn : Scenario.t;
  offered : int;  (** flows the workload submits *)
  fault_ns : int option;  (** simulated instant of the first fault *)
  run : unit -> Workload.Fct_stats.t * float;
      (** drive to completion: every flow's record, and goodput in bit/s *)
}

(* Under PDES the control scheduler's clock stays at 0; the shard clocks
   the hosts run on carry the simulated time. *)
let sim_now scn =
  Array.fold_left
    (fun acc h -> Sim_time.max acc (Scheduler.now (Host.sched h)))
    (Scheduler.now (Scenario.sched scn))
    (Fabric.hosts (Scenario.fabric scn))

let ok_or_fail = function Ok v -> v | Error e -> failwith e

(* A run shrunk to [scale] of its flows spends about [scale] of its
   simulated time after the warm-up, so the plan's instants after the
   warm-up shrink with it: a short run still reaches the fault, and
   spends the same share of its traffic under it.  Only [at] moves, which
   suits the open-ended presets used here; at scale 1 the plan is the
   preset's own. *)
let scale_plan ~warmup ~scale plan =
  if scale >= 1.0 then plan
  else
    List.map
      (fun (e : Faults.Fault_plan.event) ->
        if Sim_time.compare_span e.at warmup <= 0 then e
        else
          {
            e with
            at =
              Sim_time.add_span warmup
                (Sim_time.mul_span (Sim_time.sub_span e.at warmup) scale);
          })
      plan

let arm_preset scn params ~scale preset =
  let spec = ok_or_fail (Chaos.preset_spec params preset) in
  let plan =
    scale_plan ~warmup:(Scenario.warmup scn) ~scale
      (ok_or_fail
         (Faults.Fault_plan.parse ~names:(Scenario.fault_names params) spec))
  in
  let fabric = Scenario.fabric scn in
  let engine =
    Faults.Fault_engine.create ~sched:(Scenario.sched scn) ~fabric
      ~vswitches:(Array.map (Scenario.vswitch scn) (Fabric.hosts fabric))
      ~naming:(Scenario.fault_naming scn)
      ~rng:(Rng.split_named (Scenario.rng scn) "faults")
  in
  ok_or_fail (Faults.Fault_engine.arm engine plan);
  (* the plan is sorted by instant *)
  let first =
    (* reported as a count of ns — lint: allow sema-time-boundary *)
    match plan with [] -> None | e :: _ -> Some (Sim_time.span_ns e.at)
  in
  (engine, first)

(* Client i sends to server i mod n, one persistent connection each. *)
let websearch ~shards ~scheme ~params ~load ~jobs ~scale ?preset () =
  let scn = Scenario.build ~shards ~scheme params in
  let servers = Scenario.servers scn in
  let conns =
    Array.mapi
      (fun i client ->
        Scenario.connect scn ~src:client ~dst:servers.(i mod Array.length servers))
      (Scenario.clients scn)
  in
  let armed = Option.map (arm_preset scn params ~scale) preset in
  let faults = Option.map fst armed in
  let cfg =
    {
      Workload.Websearch.load;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn = jobs;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let run () =
    let fct = Scenario.run_websearch scn ~rng:(Scenario.rng scn) ~conns cfg in
    Option.iter Faults.Fault_engine.stop faults;
    let span =
      Sim_time.to_sec (sim_now scn) -. Sim_time.span_to_sec cfg.start_at
    in
    (fct, 8.0 *. float_of_int (Workload.Fct_stats.total_bytes fct) /. span)
  in
  {
    scn;
    offered = jobs * Array.length conns;
    fault_ns = Option.bind armed snd;
    run;
  }

(* Every server answers client 0; each response part is one flow, timed
   from its submission to its last acknowledged byte. *)
let incast ~params ~fanout ~total_bytes ~requests =
  let scn = Scenario.build ~shards:1 ~scheme:Scenario.S_clove_ecn params in
  let sched = Scenario.sched scn in
  let client = (Scenario.clients scn).(0) in
  let fct = Workload.Fct_stats.create () in
  let submits =
    Array.map
      (fun server ->
        let submit = Scenario.connect scn ~src:server ~dst:client in
        fun ~bytes ~on_complete ->
          let start = Scheduler.now sched in
          submit ~bytes ~on_complete:(fun () ->
              Workload.Fct_stats.record fct ~size:bytes ~start
                ~finish:(Scheduler.now sched);
              on_complete ()))
      (Scenario.servers scn)
  in
  let run () =
    let r =
      Workload.Incast.run ~sched ~rng:(Scenario.rng scn) ~server_submits:submits
        ~fanout ~total_bytes ~requests ~start_at:(Scenario.warmup scn)
    in
    (fct, r.Workload.Incast.goodput_bps)
  in
  { scn; offered = requests * fanout; fault_ns = None; run }

let workloads = [ "websearch"; "incast"; "clos3-brownout"; "wide-pdes" ]

(* [scale] shrinks the flow or request count and the fault instants
   (timed and smoke runs); [shards] overrides the execution width (the
   wide-pdes serial cross-check). *)
let prepare name ~seed ~scale ~shards =
  let count n = max 1 (int_of_float (Float.round (scale *. float_of_int n))) in
  let width default = Option.value shards ~default in
  let base = Scenario.default_params in
  match name with
  | "websearch" ->
    websearch ~shards:(width 1) ~scheme:Scenario.S_clove_ecn
      ~params:
        { base with Scenario.asymmetric = true; failure_recovery = true; seed }
      ~load:0.6 ~jobs:(count 1400) ~scale ()
  | "incast" ->
    incast
      ~params:
        { base with Scenario.hosts_per_leaf = 16; fabric_rate_bps = 40e9; seed }
      ~fanout:15 ~total_bytes:2_500_000 ~requests:(count 400)
  | "clos3-brownout" ->
    (* the faulted CAFT run of the 3-tier chaos flagship *)
    let p = Chaos.default_opts.Chaos.params in
    websearch ~shards:(width 1) ~scheme:Scenario.S_caft
      ~params:
        {
          p with
          Scenario.pods = 2;
          fabric_rate_bps = float_of_int p.Scenario.hosts_per_leaf *. 10e9 /. 4.0;
          failure_recovery = true;
          seed;
        }
      ~load:0.15 ~jobs:(count 600) ~scale ~preset:"core-brownout" ()
  | "wide-pdes" ->
    websearch ~shards:(width 2) ~scheme:Scenario.S_clove_ecn
      ~params:{ base with Scenario.leaves = 32; hosts_per_leaf = 2; seed }
      ~load:0.5 ~jobs:(count 250) ~scale ()
  | w ->
    failwith
      (Printf.sprintf "unknown workload %S (one of: %s)" w
         (String.concat ", " workloads))

(* ------------------------------ counters ---------------------------- *)

(* Per-layer counts read through each layer's public accessors after the
   run.  A given workload, seed and scale reproduces every one exactly. *)
let counters p fct =
  let scn = p.scn in
  let fabric = Scenario.fabric scn in
  let hosts = Array.to_list (Fabric.hosts fabric) in
  let switches = Array.to_list (Fabric.switches fabric) in
  let links = Fabric.all_links fabric in
  let scheds =
    List.fold_left
      (fun acc s -> if List.memq s acc then acc else s :: acc)
      []
      ((Scenario.sched scn :: List.map Host.sched hosts)
      @ List.map Switch.sched switches)
  in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let vstats =
    List.map (fun h -> Clove.Vswitch.stats (Scenario.vswitch scn h)) hosts
  in
  let stacks = List.map (Scenario.stack scn) hosts in
  let senders = List.concat_map Transport.Stack.senders stacks in
  let shard f = match Scenario.shard scn with Some s -> f s | None -> 0 in
  let caft f = match Scenario.caft scn with Some c -> f c | None -> 0 in
  let open Clove.Vswitch in
  [
    ("engine.events", sum Scheduler.events_fired scheds);
    ("engine.wheel_scheduled", sum Scheduler.wheel_scheduled scheds);
    ("engine.heap_scheduled", sum Scheduler.heap_scheduled scheds);
    ("engine.compactions", sum Scheduler.compactions scheds);
    ("engine.batched_events", sum Scheduler.batched_events scheds);
    ("shard.width", Scenario.shards scn);
    ("shard.windows", shard Shard.windows);
    ("shard.stalls", shard Shard.stalls);
    ("shard.boundary_events", shard Shard.boundary_events);
    ("shard.window_ns", shard Shard.window_ns);
    ("netsim.host_tx_packets", sum Host.tx_packets hosts);
    ("netsim.host_rx_packets", sum Host.rx_packets hosts);
    ("netsim.link_tx_packets", sum Link.tx_packets links);
    ("netsim.switch_rx_packets", sum Switch.rx_packets switches);
    ("netsim.queue_drops", Fabric.total_drops fabric);
    ("netsim.ecn_marks", Fabric.total_marks fabric);
    ( "netsim.max_queue_pkts",
      List.fold_left
        (fun acc l -> max acc (Pkt_queue.stats (Link.queue l)).Pkt_queue.max_occupancy)
        0 links );
    ("netsim.brownout_drops", sum Link.brownout_drops links);
    ("clove.tx_tenant", sum (fun s -> s.tx_tenant) vstats);
    ("clove.flowlets", sum (fun s -> s.flowlets) vstats);
    ("clove.feedback_seen", sum (fun s -> s.congestion_feedback_seen) vstats);
    ("clove.feedback_piggybacked", sum (fun s -> s.feedback_piggybacked) vstats);
    ("clove.feedback_carriers", sum (fun s -> s.feedback_carriers) vstats);
    ("clove.escalations", sum (fun s -> s.escalations) vstats);
    ("clove.probes_answered", sum (fun s -> s.probes_answered) vstats);
    ( "clove.peak_flows_tracked",
      List.fold_left
        (fun acc h -> max acc (peak_flows_tracked (Scenario.vswitch scn h)))
        0 hosts );
    ("fabric_lb.decisions", caft Fabric_lb.Caft.decisions);
    ("fabric_lb.flowlets_started", caft Fabric_lb.Caft.flowlets_started);
    ("fabric_lb.reweights", caft Fabric_lb.Caft.reweights);
    ("transport.retransmits", sum Transport.Tcp.retransmits senders);
    ("transport.timeouts", sum Transport.Tcp.timeouts senders);
    ("transport.unknown_drops", sum Transport.Stack.unknown_drops stacks);
    ("workload.flows", Workload.Fct_stats.count fct);
    (* reported as a count of ns — lint: allow sema-time-boundary *)
    ("workload.sim_ns", Sim_time.to_ns (sim_now scn));
  ]

(* ------------------------------ GC trace ---------------------------- *)

(* Host time the runtime spends in minor collections and major slices,
   from OCaml's Runtime_events ring.  The ring is read at the end of
   every major cycle (a GC alarm) and once more at the end, so it never
   wraps; [lost] counts events overwritten anyway. *)
type gc_trace = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  span_ns : int array;  (** [| minor; major slice |] *)
  lost : int ref;
  alarm : Gc.alarm;
}

let trace_start () =
  Runtime_events.start ();
  let span_ns = [| 0; 0 |] and lost = ref 0 in
  let opened = Hashtbl.create 16 in
  let slot = function
    | Runtime_events.EV_MINOR -> Some 0
    | Runtime_events.EV_MAJOR_SLICE -> Some 1
    | _ -> None
  in
  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        match slot phase with
        | Some i -> Hashtbl.replace opened (ring, i) (ns ts)
        | None -> ())
      ~runtime_end:(fun ring ts phase ->
        match slot phase with
        | Some i -> (
          match Hashtbl.find_opt opened (ring, i) with
          | Some t0 ->
            Hashtbl.remove opened (ring, i);
            span_ns.(i) <- span_ns.(i) + (ns ts - t0)
          | None -> ())
        | None -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  let cursor = Runtime_events.create_cursor None in
  (* drop whatever start-up left in the ring *)
  let (_ : int) =
    Runtime_events.read_poll cursor (Runtime_events.Callbacks.create ()) None
  in
  let alarm =
    Gc.create_alarm (fun () ->
        (* one domain reads the cursor — lint: allow sema-domain-parallel *)
        if Domain.is_main_domain () then
          let (_ : int) = Runtime_events.read_poll cursor callbacks None in
          ())
  in
  { cursor; callbacks; span_ns; lost; alarm }

let trace_stop t =
  Gc.delete_alarm t.alarm;
  let (_ : int) = Runtime_events.read_poll t.cursor t.callbacks None in
  Runtime_events.free_cursor t.cursor;
  J.Obj
    [
      ("minor_s", J.Float (float_of_int t.span_ns.(0) *. 1e-9));
      ("major_s", J.Float (float_of_int t.span_ns.(1) *. 1e-9));
      ("lost_events", J.Int !(t.lost));
    ]

(* ------------------------------ one run ----------------------------- *)

(* Set up this many times and keep the last: the fastest of several
   set-ups is steady where a single millisecond-scale one is not. *)
let setups = 9

(* Every timed set-up and run starts on a collected heap, so that none
   pays the major GC's work on the garbage the one before left. *)
let settle () = Gc.full_major ()

let digest fct =
  Digest.to_hex (Digest.string (Workload.Fct_stats.canonical_dump fct))

(* The first run is the one whose counters, GC statistics and peak heap
   are read.  [repeat] > 1 then runs the same input [repeat - 1] more
   times, each on a fresh set-up, for their wall times and digests. *)
let run_workload name ~seed ~scale ~shards ~repeat ~trace =
  let setup_s = ref [] in
  let prep = ref None in
  for _ = 1 to setups do
    settle ();
    let t0 = now () in
    let p = prepare name ~seed ~scale ~shards in
    setup_s := (now () -. t0) :: !setup_s;
    prep := Some p
  done;
  let p = Option.get !prep in
  settle ();
  let tracer = if trace then Some (trace_start ()) else None in
  Packet_pool.reset_stats ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let fct, goodput_bps = p.run () in
  let wall_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let gc_trace = Option.map trace_stop tracer in
  let pool = Packet_pool.stats () in
  let counts = counters p fct in
  Scenario.quiesce p.scn;
  let again =
    List.init (repeat - 1) (fun _ ->
        let p = prepare name ~seed ~scale ~shards in
        settle ();
        let t0 = now () in
        let fct, _ = p.run () in
        let wall_s = now () -. t0 in
        Scenario.quiesce p.scn;
        (wall_s, digest fct))
  in
  let pct q = Workload.Fct_stats.percentile fct q in
  J.Obj
    ([
       ("workload", J.String name);
       ("ocaml", J.String Sys.ocaml_version);
       ("seed", J.Int seed);
       ("scale", J.Float scale);
       ("setup_s", J.List (List.rev_map (fun s -> J.Float s) !setup_s));
       ( "wall_s",
         J.List (J.Float wall_s :: List.map (fun (w, _) -> J.Float w) again) );
       ("flows_offered", J.Int p.offered);
       ( "fault_ns",
         match p.fault_ns with Some ns -> J.Int ns | None -> J.Null );
       ("payload_bytes", J.Int (Workload.Fct_stats.total_bytes fct));
       ("fct_p50_s", J.Float (pct 50.0));
       ("fct_p99_s", J.Float (pct 99.0));
       ("goodput_bps", J.Float goodput_bps);
       ("digest", J.String (digest fct));
       ("repeat_digests", J.List (List.map (fun (_, d) -> J.String d) again));
       ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counts));
       ("top_heap_bytes", J.Int (g1.Gc.top_heap_words * (Sys.word_size / 8)));
       ( "gc",
         J.Obj
           [
             ("minor_words", J.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
             ( "promoted_words",
               J.Float (g1.Gc.promoted_words -. g0.Gc.promoted_words) );
             ( "minor_collections",
               J.Int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
             ( "major_collections",
               J.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
           ] );
       ( "pool",
         J.Obj
           [
             ("hits", J.Int pool.Packet_pool.hits);
             ("misses", J.Int pool.Packet_pool.misses);
           ] );
     ]
    @ match gc_trace with Some t -> [ ("trace", t) ] | None -> [])

(* ------------------------- microbenchmarks -------------------------- *)

(* Per-call costs of the hot paths each layer runs per event or per
   packet, as bechamel OLS estimates in ns/op, keyed by the per-layer
   metric they feed; each bench runs for about [quota] seconds. *)
let microbenches ~quota =
  let open Bechamel in
  let sched = Scheduler.create () in
  let cfg = Clove.Clove_config.default in
  (* microbench input stream — lint: allow sema-adhoc-seed *)
  let rng = Rng.create 1 in
  let flowlets = Clove.Flowlet.create ~sched ~gap:(Sim_time.us 40) ~dummy:0 in
  let wrr = Clove.Wrr.create ~weights:[| 0.1; 0.3; 0.3; 0.3 |] in
  let table = Clove.Path_table.create ~sched ~cfg in
  Clove.Path_table.install table
    (List.init 4 (fun i ->
         (50001 + i, [ { Packet.hop_node = 2 + (i / 2); hop_port = i mod 2 } ])));
  let eq = Event_queue.create ~dummy:() () in
  let dre = Dre.create ~rate_bps:10e9 sched in
  let seg =
    {
      Packet.conn_id = 1;
      subflow = 0;
      src_port = 1;
      dst_port = 2;
      seq = 0;
      ack = 0;
      kind = Packet.Data;
      payload = 1400;
      ece = false;
    }
  in
  (* a switch traversal: receive -> route -> pick -> enqueue, then the
     egress link's serialization and delivery *)
  let sw_sched = Scheduler.create () in
  let sw =
    Switch.create ~sched:sw_sched ~id:0 ~level:Switch.Leaf ~ecmp_seed:3
      ~latency:Sim_time.zero_span ()
  in
  let ports =
    Array.init 4 (fun i ->
        let link =
          Link.create ~sched:sw_sched ~rate_bps:40e9
            ~prop_delay:Sim_time.zero_span ()
        in
        Link.set_sink link (fun _ -> ());
        Switch.add_port sw ~link ~peer:(i + 1) ~parallel_index:0)
  in
  Switch.set_routes sw (Addr.of_int 99) ports;
  (* one tagged event popped and dispatched, its handler scheduling the
     next, with 256 events pending over a 10 us horizon *)
  let d_sched = Scheduler.create () in
  let kind = ref 0 in
  let after i = Sim_time.ns (1 + (i * 7919 mod 10_000)) in
  kind :=
    Scheduler.register_kind d_sched (fun i ->
        Scheduler.schedule_tag d_sched ~after:(after i) ~kind:!kind ~arg:(i + 1));
  for i = 0 to 255 do
    Scheduler.schedule_tag d_sched ~after:(after i) ~kind:!kind ~arg:(i * 256)
  done;
  (* a link like the switch's egress links, on a private scheduler,
     driven through serialization and propagation to its sink *)
  let l_sched = Scheduler.create () in
  let link =
    Link.create ~sched:l_sched ~rate_bps:40e9 ~prop_delay:Sim_time.zero_span ()
  in
  Link.set_sink link (fun _ -> ());
  let l_pkt = Packet.make_tenant ~src:(Addr.of_int 1) ~dst:(Addr.of_int 2) ~seg in
  let sink = ref (Workload.Fct_stats.create ()) and recorded = ref 0 in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      test "engine.dispatch_ns" (fun () -> Scheduler.step d_sched);
      test "engine.event_queue_ns" (fun () ->
          (* synthetic timestamps — lint: allow sema-time-boundary *)
          Event_queue.add eq ~time:(Sim_time.of_ns (Rng.int rng 1_000_000)) ();
          Event_queue.pop eq);
      test "netsim.switch_forward_ns" (fun () ->
          Switch.receive sw ~in_port:0
            (Packet.make_tenant ~src:(Addr.of_int 1) ~dst:(Addr.of_int 99) ~seg);
          while Scheduler.step sw_sched do
            ()
          done);
      test "netsim.link_send_ns" (fun () ->
          Link.send link l_pkt;
          while Scheduler.step l_sched do
            ()
          done);
      test "netsim.dre_ns" (fun () ->
          Dre.observe dre ~bytes_len:1500;
          Dre.utilization dre);
      test "netsim.pool_ns" (fun () ->
          Packet_pool.release
            (Packet_pool.acquire_tenant ~src:(Addr.of_int 1) ~dst:(Addr.of_int 2)
               ~conn_id:1 ~subflow:0 ~src_port:10 ~dst_port:20 ~seq:0 ~ack:0
               ~kind:Packet.Data ~payload:1400 ~ece:false));
      test "netsim.ecmp_hash_ns" (fun () ->
          Ecmp_hash.hash_tuple ~seed:7 (12, 34, 56, 78));
      test "clove.flowlet_touch_ns" (fun () ->
          Clove.Flowlet.touch flowlets ~key:(Rng.int rng 1024)
            ~pick:(fun ~flowlet_id -> flowlet_id));
      test "clove.wrr_pick_ns" (fun () -> Clove.Wrr.pick wrr);
      test "clove.path_table_update_ns" (fun () ->
          Clove.Path_table.note_congested table ~port:50002);
      test "workload.fct_record_ns" (fun () ->
          (* a fresh sink now and then keeps the record array bounded *)
          incr recorded;
          if !recorded land 0xFFFF = 0 then sink := Workload.Fct_stats.create ();
          Workload.Fct_stats.record !sink ~size:1400 ~start:Sim_time.zero
            (* a synthetic 1 us flow — lint: allow sema-time-boundary *)
            ~finish:(Sim_time.of_ns 1000));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let bcfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  J.Obj
    (List.map
       (fun t ->
         let results = Benchmark.all bcfg instances t in
         let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
         let name = Test.name t in
         match
           Option.bind (Hashtbl.find_opt analyzed name) Analyze.OLS.estimates
         with
         | Some (est :: _) -> (name, J.Float est)
         | Some [] | None -> (name, J.Null))
       tests)

(* ------------------------------ command line ------------------------ *)

let usage () =
  prerr_endline
    "usage: probe.exe run WORKLOAD [--seed N] [--scale F] [--shards K] \
     [--repeat R] [--trace]\n\
    \       probe.exe micro [--quota SECONDS]";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "micro" ] -> print_endline (J.to_string (microbenches ~quota:0.25))
  | [ "micro"; "--quota"; q ] ->
    print_endline (J.to_string (microbenches ~quota:(float_of_string q)))
  | "run" :: name :: opts ->
    let seed = ref 1 and scale = ref 1.0 and shards = ref None and repeat = ref 1 in
    let trace = ref false in
    let rec parse = function
      | [] -> ()
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--scale" :: v :: rest -> scale := float_of_string v; parse rest
      | "--shards" :: v :: rest -> shards := Some (int_of_string v); parse rest
      | "--repeat" :: v :: rest -> repeat := max 1 (int_of_string v); parse rest
      | "--trace" :: rest -> trace := true; parse rest
      | _ -> usage ()
    in
    parse opts;
    print_endline
      (J.to_string
         (run_workload name ~seed:!seed ~scale:!scale ~shards:!shards
            ~repeat:!repeat ~trace:!trace))
  | _ -> usage ()
