(* clove-check's allocation analysis end-to-end on the seeded fixtures under
   test/fixtures/alloc/ (the .cmt files come out of the alloc_fixtures
   library's .objs directory): the allocating twin is flagged with a
   witness chain from its dispatch root, the preallocated twin is
   clean, output is deterministic and sorted; plus the qcheck property
   that hot-region membership is monotone under added call-graph
   edges. *)

let qc = QCheck_alcotest.to_alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* tests run from _build/default/test, so the fixture library's build
   artifacts are under fixtures/ and the repo's build root is .. *)
let load_fixture_units () =
  Sema.Cmt_load.load ~root:"fixtures" ~source_prefixes:[ "test/fixtures/alloc/" ]

(* the driver's path: one linked graph, then the shared suppressions *)
let run_fixtures () =
  let units = load_fixture_units () in
  let l = Sema.Race_extract.analyze units in
  Analysis.Findings.suppress ~source_root:".." ~files:l.Sema.Race_extract.l_files
    (Sema.Alloc_report.run ~cold:(Sema.Alloc_extract.cold_spans units) l)
      .Sema.Alloc_report.a_findings

let fixture_result = lazy (run_fixtures ())

let test_fixtures_load () =
  let units = load_fixture_units () in
  let names = List.map (fun u -> u.Sema.Cmt_load.u_short) units in
  Alcotest.(check bool) "hot unit loaded" true (List.mem "Alloc_hot" names);
  Alcotest.(check bool) "clean unit loaded" true (List.mem "Alloc_clean" names)

let active_findings () =
  List.filter Analysis.Findings.is_active (Lazy.force fixture_result)

let test_hot_flagged_with_witness () =
  let open Analysis.Findings in
  let active = active_findings () in
  let f =
    match
      List.find_opt
        (fun f ->
          f.rule = "alloc-closure" && contains f.target "Alloc_hot.push_thunk")
        active
    with
    | Some f -> f
    | None ->
      Alcotest.failf "push_thunk closure not flagged; findings: %s"
        (String.concat ", "
           (List.map (fun f -> f.rule ^ " " ^ f.target) active))
  in
  Alcotest.(check string) "file" "test/fixtures/alloc/alloc_hot.ml" f.file;
  (* the chain starts at the structurally discovered registration root
     and passes through both helpers on the way down *)
  (match f.witness with
  | root :: _ ->
    Alcotest.(check bool) "rooted at the register_kind closure" true
      (contains root "Alloc_hot.install.<kind@")
  | [] -> Alcotest.fail "empty witness");
  let witness_has sub = List.exists (fun w -> contains w sub) f.witness in
  Alcotest.(check bool) "witness passes through on_event" true
    (witness_has "calls Alloc_hot.on_event");
  Alcotest.(check bool) "witness passes through push_thunk" true
    (witness_has "calls Alloc_hot.push_thunk");
  Alcotest.(check bool) "witness ends at the closure literal" true
    (contains (List.nth f.witness (List.length f.witness - 1)) "closure literal");
  (* root, two call hops, the allocation site *)
  Alcotest.(check int) "witness length" 4 (List.length f.witness);
  (* the cons cell holding the thunk is flagged too *)
  Alcotest.(check bool) "list cons flagged" true
    (List.exists
       (fun f ->
         f.rule = "alloc-cons" && contains f.target "Alloc_hot.push_thunk")
       active)

let test_clean_twin () =
  let open Analysis.Findings in
  List.iter
    (fun f ->
      if contains f.file "alloc_clean" then
        Alcotest.failf "clean fixture flagged: %s at %s:%d" f.target f.file
          f.line)
    (active_findings ());
  (* every active finding in the fixture set comes from the seeded unit *)
  List.iter
    (fun f ->
      Alcotest.(check string)
        "finding file" "test/fixtures/alloc/alloc_hot.ml" f.file)
    (active_findings ())

let test_deterministic_output () =
  let render () =
    let fs = run_fixtures () in
    let new_keys = Hashtbl.create 1 in
    ( Analysis.Json_out.to_string (Analysis.Findings.findings_json ~new_keys fs),
      Analysis.Json_out.to_string
        (Analysis.Findings.sarif ~tool:"clove-check"
           ~rules:Sema.Alloc_report.rules ~new_keys fs) )
  in
  let j1, s1 = render () in
  let j2, s2 = render () in
  Alcotest.(check string) "two runs render identical JSON" j1 j2;
  Alcotest.(check string) "two runs render identical SARIF" s1 s2

let test_findings_sorted () =
  let open Analysis.Findings in
  let keys =
    List.map
      (fun f -> (f.file, f.line, f.rule, f.target))
      (Lazy.force fixture_result)
  in
  Alcotest.(check bool) "findings sorted by (file, line, rule)" true
    (List.sort compare keys = keys)

(* ------------------- hot-region monotonicity ---------------------- *)

(* (n, roots, edges, extra edge): a random abstract call graph plus
   one candidate edge to add *)
let graph_gen =
  let open QCheck.Gen in
  int_range 1 6 >>= fun n ->
  list_size (int_range 0 3) (int_range 0 (n - 1)) >>= fun roots ->
  list_size (int_range 0 10) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  >>= fun edges ->
  pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) >>= fun extra ->
  return (n, roots, edges, extra)

let prop_hot_monotone =
  QCheck.Test.make ~count:500
    ~name:"hot region: adding a call edge is monotone"
    (QCheck.make graph_gen) (fun (n, roots, edges, extra) ->
      let before = Sema.Alloc_extract.reachable ~n ~roots ~edges in
      let after = Sema.Alloc_extract.reachable ~n ~roots ~edges:(extra :: edges) in
      Array.for_all2 (fun b a -> (not b) || a) before after)

let () =
  Alcotest.run "alloc"
    [
      ( "fixtures",
        [
          Alcotest.test_case "fixture units load" `Quick test_fixtures_load;
          Alcotest.test_case "hot twin flagged with witness" `Quick
            test_hot_flagged_with_witness;
          Alcotest.test_case "clean twin clean" `Quick test_clean_twin;
          Alcotest.test_case "deterministic report" `Quick
            test_deterministic_output;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
        ] );
      ("hot-region", [ qc prop_hot_monotone ]);
    ]
