(* Conservative time-window PDES: sharded runs must be byte-identical to
   the serial engine.

   The central property: for random small fabrics, schemes, loads and
   seeds, the canonical FCT dump of a run at --shards n (n in {2, 4})
   equals the dump at --shards 1 (serial).  Also covers the
   partition-time window validation and width clamping. *)

open Experiments

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let qc = QCheck_alcotest.to_alcotest

let params ~leaves ~hosts_per_leaf ~asymmetric ~seed =
  {
    Scenario.default_params with
    Scenario.leaves;
    hosts_per_leaf;
    asymmetric;
    seed;
    (* keep per-run cost small: the property runs many fabrics *)
    size_scale = 0.1;
  }

let run_once ~shards ~scheme ~params ~load ~jobs_per_conn =
  let scn = Scenario.build ~shards ~scheme params in
  let rng = Scenario.rng scn in
  let servers = Scenario.servers scn in
  let conns =
    Array.mapi
      (fun i client ->
        Scenario.connect scn ~src:client
          ~dst:servers.(i mod Array.length servers))
      (Scenario.clients scn)
  in
  let cfg =
    {
      Workload.Websearch.load;
      bisection_bps = Scenario.bisection_bps scn;
      jobs_per_conn;
      size_dist = Scenario.size_dist scn;
      start_at = Scenario.warmup scn;
    }
  in
  let fct = Scenario.run_websearch scn ~rng ~conns cfg in
  Scenario.quiesce scn;
  Workload.Fct_stats.canonical_dump fct

(* ------------------- shard(n) = serial property -------------------- *)

let schemes = [| Scenario.S_ecmp; S_clove_ecn; S_letflow; S_conga |]

let prop_sharded_equals_serial =
  QCheck.Test.make ~name:"shard(n) FCT digest = serial, random fabrics"
    ~count:8
    QCheck.(
      quad (int_range 2 4 (* leaves *)) (int_range 2 3 (* hosts/leaf *))
        (int_bound (Array.length schemes - 1))
        (int_range 1 1000 (* seed *)))
    (fun (leaves, hosts_per_leaf, scheme_i, seed) ->
      let scheme = schemes.(scheme_i) in
      let asymmetric = seed mod 2 = 0 in
      let params = params ~leaves ~hosts_per_leaf ~asymmetric ~seed in
      let load = 0.2 +. (0.2 *. float_of_int (seed mod 3)) in
      let run shards =
        run_once ~shards ~scheme ~params ~load ~jobs_per_conn:3
      in
      let serial = run 1 in
      String.length serial > 0 (* a trivially empty run proves nothing *)
      && List.for_all
           (fun n -> if n > leaves then true else String.equal serial (run n))
           [ 2; 4 ])

(* 3-tier Clos under CAFT: PDES shards the core tier round-robin along
   with the flattened leaves; digests must stay byte-identical at every
   width, including the hop-by-hop picker state on core switches. *)
let test_clos3_caft_sharded_digest () =
  let params =
    {
      Scenario.default_params with
      Scenario.pods = 2;
      hosts_per_leaf = 2;
      seed = 11;
      size_scale = 0.1;
    }
  in
  let run shards =
    run_once ~shards ~scheme:Scenario.S_caft ~params ~load:0.2 ~jobs_per_conn:3
  in
  let serial = run 1 in
  check_bool "3-tier run not empty" true (String.length serial > 0);
  check_string "shard 2 = serial" serial (run 2);
  check_string "shard 4 = serial" serial (run 4)

(* ------------------- window validation at plan time ----------------- *)

let test_window_rejects_short_cross_link () =
  let ls =
    Topology.clos ~pods:1 ~leaves_per_pod:2 ~spines_per_pod:2 ~cores:0
      ~hosts_per_leaf:2 ~parallel:1 ~host_rate_bps:10e9 ~fabric_rate_bps:20e9
      ~core_rate_bps:20e9 ~delay:(Sim_time.us 2)
  in
  (* hosts follow their leaf; leaf 1 and spine 1 on shard 1: every
     leaf-spine edge between distinct shards crosses *)
  let shard_of id =
    if id = ls.Topology.leaf_ids.(1) || id = ls.Topology.spine_ids.(1)
       || Array.exists (fun h -> h = id) ls.Topology.host_ids.(1)
    then 1
    else 0
  in
  (* the inferred window is the minimum cross latency and is accepted *)
  let p =
    Partition.plan ~topo:ls.Topology.topo ~nshards:2 ~shard_of_node:shard_of
  in
  Alcotest.(check int) "inferred window = 2us fabric hop" 2_000
    (Partition.window_ns p)

let test_width_clamps_to_leaves () =
  let params = params ~leaves:2 ~hosts_per_leaf:2 ~asymmetric:false ~seed:1 in
  let scn = Scenario.build ~shards:5 ~scheme:Scenario.S_ecmp params in
  Alcotest.(check int) "width clamps to one shard per leaf" 2
    (Scenario.shards scn);
  Scenario.quiesce scn

let test_zero_width_rejected () =
  let params = params ~leaves:2 ~hosts_per_leaf:2 ~asymmetric:false ~seed:1 in
  Alcotest.check_raises "width 0 is not a mode"
    (Invalid_argument "Scenario.build: shards must be >= 1") (fun () ->
      ignore (Scenario.build ~shards:0 ~scheme:Scenario.S_ecmp params))

let test_mptcp_degrades_to_serial_fallback () =
  let params = params ~leaves:2 ~hosts_per_leaf:2 ~asymmetric:false ~seed:1 in
  let scn = Scenario.build ~shards:2 ~scheme:Scenario.S_mptcp params in
  Alcotest.(check int) "sharded MPTCP runs the serial fallback" 1
    (Scenario.shards scn);
  check_bool "no shard coordinator" true (Option.is_none (Scenario.shard scn));
  Scenario.quiesce scn

let () =
  Alcotest.run "pdes"
    [
      ( "determinism",
        [
          qc prop_sharded_equals_serial;
          Alcotest.test_case "3-tier CAFT digests shard-invariant" `Quick
            test_clos3_caft_sharded_digest;
        ] );
      ( "partition",
        [
          Alcotest.test_case "short cross link rejected" `Quick
            test_window_rejects_short_cross_link;
          Alcotest.test_case "width clamps to leaves" `Quick
            test_width_clamps_to_leaves;
          Alcotest.test_case "zero width rejected" `Quick
            test_zero_width_rejected;
          Alcotest.test_case "sharded MPTCP degrades to fallback" `Quick
            test_mptcp_degrades_to_serial_fallback;
        ] );
    ]
