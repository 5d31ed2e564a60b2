(* clove-check's race analysis end-to-end on the seeded fixtures under
   test/fixtures/race/ (the .cmt files come out of the race_fixtures
   library's .objs directory), plus the lattice monotonicity property:
   adding a call edge or raising a node's intrinsic footprint can only
   raise the solved footprints. *)

let qc = QCheck_alcotest.to_alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* tests run from _build/default/test, so the fixture library's build
   artifacts are under fixtures/ and the repo's build root is .. *)
let load_fixture_units () =
  fst (Analysis.Cmt_load.load ~root:"fixtures" ~source_prefixes:[ "test/fixtures/race/" ])

(* the driver's path: one linked graph, then the shared suppressions *)
let run_fixtures () =
  let l = Analysis.Race_extract.analyze (load_fixture_units ()) in
  let r = Analysis.Race_report.run l in
  ( r,
    Analysis.Findings.suppress ~source_root:".." ~files:l.Analysis.Race_extract.l_files
      r.Analysis.Race_report.r_findings )

let fixture_result = lazy (run_fixtures ())

let test_fixtures_load () =
  let units = load_fixture_units () in
  let names = List.map (fun u -> u.Analysis.Cmt_load.u_short) units in
  Alcotest.(check bool) "racy unit loaded" true (List.mem "Racy_chain" names);
  Alcotest.(check bool) "safe unit loaded" true (List.mem "Safe_chain" names)

let active_findings () =
  List.filter Analysis.Findings.is_active (snd (Lazy.force fixture_result))

let roots_of (f : Analysis.Findings.t) =
  match List.assoc_opt "roots" f.extra with
  | Some (Analysis.Json_out.List rs) ->
    List.filter_map (function Analysis.Json_out.String r -> Some r | _ -> None) rs
  | _ -> []

let flagged target =
  let active = active_findings () in
  match
    List.find_opt (fun (f : Analysis.Findings.t) -> f.target = target) active
  with
  | Some f -> f
  | None ->
    Alcotest.failf "%s not flagged; findings: %s" target
      (String.concat ", "
         (List.map (fun (f : Analysis.Findings.t) -> f.target) active))

let test_racy_flagged () =
  let f = flagged "Racy_chain.stats" in
  Alcotest.(check string) "rule" "race-shared-mut" f.rule;
  Alcotest.(check string) "file" "test/fixtures/race/racy_chain.ml" f.file;
  Alcotest.(check bool) "rooted at record" true
    (List.mem "Racy_chain.record" (roots_of f));
  let witness_has sub = List.exists (fun w -> contains w sub) f.witness in
  Alcotest.(check bool) "witness passes through bump" true
    (witness_has "calls Racy_chain.bump");
  Alcotest.(check bool) "witness ends at the Hashtbl mutation" true
    (witness_has "Hashtbl.replace");
  (* the chain is root, one call hop, one mutation site *)
  Alcotest.(check int) "witness length" 3 (List.length f.witness)

let test_new_mutator_flagged () =
  (* [Array.fast_sort] entered the mutator table during the stdlib
     audit; target-arg index 1 must root the effect at the sorted
     array, not the compare function *)
  let f = flagged "Racy_chain.order" in
  Alcotest.(check string) "rule" "race-shared-mut" f.rule;
  Alcotest.(check bool) "rooted at reorder" true
    (List.mem "Racy_chain.reorder" (roots_of f));
  let witness_has sub = List.exists (fun w -> contains w sub) f.witness in
  Alcotest.(check bool) "witness passes through resort" true
    (witness_has "calls Racy_chain.resort");
  Alcotest.(check bool) "witness ends at the sort" true
    (witness_has "Array.fast_sort")

let test_safe_clean () =
  List.iter
    (fun (f : Analysis.Findings.t) ->
      if contains f.file "safe_chain" then
        Alcotest.failf "clean fixture flagged: %s at %s:%d" f.target f.file
          f.line)
    (snd (Lazy.force fixture_result));
  (* every finding in the fixture set comes from the seeded racy unit *)
  List.iter
    (fun (f : Analysis.Findings.t) ->
      Alcotest.(check string)
        "finding file" "test/fixtures/race/racy_chain.ml" f.file)
    (active_findings ())

let test_deterministic_output () =
  let render () =
    let r, fs = run_fixtures () in
    Analysis.Json_out.to_string
      (Analysis.Json_out.List
         [
           Analysis.Race_report.summary_json r;
           Analysis.Findings.findings_json ~new_keys:(Hashtbl.create 1) fs;
         ])
  in
  Alcotest.(check string) "two runs render identically" (render ()) (render ())

let test_findings_sorted () =
  let keys =
    List.map
      (fun (f : Analysis.Findings.t) -> (f.file, f.line, f.rule, f.target))
      (snd (Lazy.force fixture_result))
  in
  Alcotest.(check bool) "findings sorted by (file, line, rule)" true
    (List.sort compare keys = keys)

(* ----------------------- lattice properties ----------------------- *)

let all_cls =
  Analysis.Race_lattice.[ Pure; Local_mut; Param_mut; Captured_mut; Shared_mut ]

let all_args =
  Analysis.Race_lattice.[ A_local; A_param "p_0"; A_captured "c_0"; A_global "G.g" ]

(* (n, own, edges, extra edge): a random abstract call graph plus one
   candidate edge to add *)
let graph_gen =
  let open QCheck.Gen in
  int_range 1 5 >>= fun n ->
  array_size (return n) (oneofl all_cls) >>= fun own ->
  list_size (int_range 0 8)
    (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (oneofl all_args))
  >>= fun edges ->
  triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (oneofl all_args)
  >>= fun extra -> return (n, own, edges, extra)

let calls_of edges i =
  List.filter_map (fun (src, dst, a) -> if src = i then Some (dst, a) else None) edges

let pointwise_leq a b =
  Array.for_all2
    (fun x y -> Analysis.Race_lattice.rank x <= Analysis.Race_lattice.rank y)
    a b

let prop_edge_monotone =
  QCheck.Test.make ~count:500 ~name:"solve: adding a call edge is monotone"
    (QCheck.make graph_gen) (fun (n, own, edges, extra) ->
      let solve edges =
        Analysis.Race_lattice.solve ~nodes:n
          ~own:(fun i -> own.(i))
          ~calls:(calls_of edges)
      in
      pointwise_leq (solve edges) (solve (extra :: edges)))

let prop_own_monotone =
  QCheck.Test.make ~count:500
    ~name:"solve: raising an intrinsic footprint is monotone"
    (QCheck.make graph_gen) (fun (n, own, edges, (m, _, _)) ->
      let solve own_of =
        Analysis.Race_lattice.solve ~nodes:n ~own:own_of ~calls:(calls_of edges)
      in
      let raised i =
        if i = m then Analysis.Race_lattice.join own.(i) Analysis.Race_lattice.Shared_mut
        else own.(i)
      in
      pointwise_leq (solve (fun i -> own.(i))) (solve raised))

let () =
  Alcotest.run "race"
    [
      ( "fixtures",
        [
          Alcotest.test_case "fixture units load" `Quick test_fixtures_load;
          Alcotest.test_case "racy chain flagged with witness" `Quick
            test_racy_flagged;
          Alcotest.test_case "audited mutator flagged (Array.fast_sort)" `Quick
            test_new_mutator_flagged;
          Alcotest.test_case "guarded chain clean" `Quick test_safe_clean;
          Alcotest.test_case "deterministic report" `Quick
            test_deterministic_output;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
        ] );
      ( "lattice",
        [ qc prop_edge_monotone; qc prop_own_monotone ] );
    ]
