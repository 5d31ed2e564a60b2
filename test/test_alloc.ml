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
  fst (Analysis.Cmt_load.load ~root:"fixtures" ~source_prefixes:[ "test/fixtures/alloc/" ])

(* the driver's path: one linked graph, then the shared suppressions *)
let run_fixtures () =
  let units = load_fixture_units () in
  let l = Analysis.Race_extract.analyze units in
  Analysis.Findings.suppress ~source_root:".." ~files:l.Analysis.Race_extract.l_files
    (Analysis.Alloc_report.run ~cold:(Analysis.Alloc_extract.cold_spans units) l)
      .Analysis.Alloc_report.a_findings

let fixture_result = lazy (run_fixtures ())

let test_fixtures_load () =
  let units = load_fixture_units () in
  let names = List.map (fun u -> u.Analysis.Cmt_load.u_short) units in
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
  (* every active finding in the fixture set comes from a seeded unit *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("finding file " ^ f.file) true
        (String.equal f.file "test/fixtures/alloc/alloc_hot.ml"))
    (active_findings ())

(* a constructor of constants is static data: the clean twin's
   [Some 64] and [~capacity:64] are not flagged, while [Some arg] in
   the hot unit is *)
let test_static_constructors () =
  let open Analysis.Findings in
  let all = Lazy.force fixture_result in
  Alcotest.(check (list string)) "clean twin: no finding at all" []
    (List.filter_map
       (fun f -> if contains f.file "alloc_clean" then Some f.target else None)
       all);
  Alcotest.(check bool) "Some over a variable flagged" true
    (List.exists
       (fun f -> f.rule = "alloc-option" && f.target = "Alloc_hot.on_some: Some")
       (active_findings ()))

(* [let f ?(x = d) y = ...] types as a function whose body is
   [let x = match *opt* with ...] in front of [fun y]: that [fun] is
   still the function's own chain, not a closure it allocates *)
let test_defaulted_optional_no_closure () =
  let open Analysis.Findings in
  Alcotest.(check (list string)) "no finding in Alloc_clean.masked" []
    (List.filter_map
       (fun f ->
         if contains f.target "Alloc_clean.masked" then Some (f.rule ^ " " ^ f.target)
         else None)
       (Lazy.force fixture_result))

(* The engine's heap once hid 16 generic compares per pop: its
   comparator was an unannotated [let[@inline]], and the call into the
   heap was recorded only as a mutation of the queue, not as a call
   edge, so the comparator never joined the hot region.  The seeded
   twin's compare is a [poly-compare] finding (its file mirrors
   lib/engine/), and the hot region reaches it through both hops. *)
let test_inline_poly_compare_through_mutator () =
  let open Analysis.Findings in
  let units = load_fixture_units () in
  (match
     List.filter
       (fun f -> f.rule = "poly-compare")
       (Analysis.Det_rules.findings units)
   with
  | [ f ] ->
    Alcotest.(check string) "target" "Event_queue.lt" f.target;
    Alcotest.(check string) "file" "test/fixtures/alloc/lib/engine/event_queue.ml" f.file;
    Alcotest.(check int) "line" 12 f.line
  | fs -> Alcotest.failf "%d poly-compare findings, expected Event_queue.lt" (List.length fs));
  let hot = Analysis.Alloc_extract.hot_region (Analysis.Race_extract.analyze units) in
  let hop (id, site) =
    match site with
    | None -> id
    | Some s -> Printf.sprintf "%s:%d calls %s" s.Analysis.Race_extract.s_file s.s_line id
  in
  Alcotest.(check (option (list string)))
    "witness: root, mutator call, comparator call"
    (Some
       [
         "Alloc_hot.on_key";
         "test/fixtures/alloc/alloc_hot.ml:24 calls Event_queue.add";
         "test/fixtures/alloc/lib/engine/event_queue.ml:15 calls Event_queue.lt";
       ])
    (Option.map (List.map hop) (Analysis.Alloc_extract.witness_to hot "Event_queue.lt"))

(* an allocation behind the auditor's switch ([Scheduler.audit]) is
   demoted to [alloc-cold]: reported, but not against the budget *)
let test_audit_gate_cold () =
  let open Analysis.Findings in
  let audited =
    List.filter
      (fun f -> contains f.target "Alloc_hot.on_audited")
      (Lazy.force fixture_result)
  in
  Alcotest.(check bool) "the audited allocations are reported" true (audited <> []);
  List.iter
    (fun f ->
      Alcotest.(check string) ("rule of " ^ f.target) "alloc-cold" f.rule;
      Alcotest.(check bool) ("inactive: " ^ f.target) false (is_active f))
    audited

(* the gate is the run mode's field and the scheduler's reporter, not
   their names: an unrelated [audit] field or [record_violation] helper
   keeps its branch's allocations in the budget *)
let test_namesake_gate_hot () =
  let open Analysis.Findings in
  List.iter
    (fun node ->
      match
        List.filter
          (fun f -> f.target = node ^ ": list cons")
          (Lazy.force fixture_result)
      with
      | [ f ] ->
        Alcotest.(check string) ("rule of " ^ node) "alloc-cons" f.rule;
        Alcotest.(check bool) ("active: " ^ node) true (is_active f)
      | fs -> Alcotest.failf "%s: %d list-cons findings" node (List.length fs))
    [ "Alloc_hot.on_probe"; "Alloc_hot.on_probe_violation" ]

(* TCP's retransmission and tail-loss-probe handlers are closures handed
   straight to Scheduler.timer: each must be a dispatch root of its own,
   so on_rto and on_tlp stay in the hot region.  The transport
   library's .cmt files are under ../lib/transport. *)
let test_tcp_timer_roots () =
  let units =
    fst
      (Analysis.Cmt_load.load ~root:"../lib/transport"
         ~source_prefixes:[ "lib/transport/" ])
  in
  let l = Analysis.Race_extract.analyze units in
  let roots =
    List.filter_map
      (fun (id, _) ->
        if String.starts_with ~prefix:"Tcp.create_sender.<kind@" id then Some id
        else None)
      l.Analysis.Race_extract.l_dispatch
  in
  Alcotest.(check int) "RTO and TLP handler closures rooted" 2 (List.length roots);
  let hot = Analysis.Alloc_extract.hot_region l in
  List.iter
    (fun handler ->
      match Analysis.Alloc_extract.witness_to hot handler with
      | Some ((root, None) :: _) ->
        Alcotest.(check bool) (handler ^ " reached from a timer root") true
          (List.mem root roots)
      | _ -> Alcotest.failf "%s is not in the hot region" handler)
    [ "Tcp.on_rto"; "Tcp.on_tlp" ]

(* A named per-event entry point that resolves to no node is listed as
   absent, not dropped.  Over the engine library alone the engine's
   named roots resolve and the packet path's (TCP, links) are absent. *)
let test_absent_named_roots () =
  let units =
    fst (Analysis.Cmt_load.load ~root:"../lib/engine" ~source_prefixes:[ "lib/engine/" ])
  in
  let hot = Analysis.Alloc_extract.hot_region (Analysis.Race_extract.analyze units) in
  let absent = hot.Analysis.Alloc_extract.h_absent in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " resolves") false (List.mem id absent))
    [ "Scheduler.run"; "Scheduler.step"; "Timer_wheel.load" ];
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " is absent") true (List.mem id absent))
    [ "Tcp.on_ack"; "Link.send" ];
  Alcotest.(check bool) "an absent root is no root" false
    (List.mem_assoc "Tcp.on_ack" hot.Analysis.Alloc_extract.h_roots)

let test_deterministic_output () =
  let render () =
    let new_keys = Hashtbl.create 1 in
    Analysis.Json_out.to_string
      (Analysis.Findings.findings_json ~new_keys (run_fixtures ()))
  in
  Alcotest.(check string) "two runs render identical JSON" (render ()) (render ())

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
      let before = Analysis.Alloc_extract.reachable ~n ~roots ~edges in
      let after = Analysis.Alloc_extract.reachable ~n ~roots ~edges:(extra :: edges) in
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
          Alcotest.test_case "constant constructors are static" `Quick
            test_static_constructors;
          Alcotest.test_case "defaulted optional argument is no closure" `Quick
            test_defaulted_optional_no_closure;
          Alcotest.test_case "inline generic compare behind a mutator call" `Quick
            test_inline_poly_compare_through_mutator;
          Alcotest.test_case "audited branch is cold" `Quick test_audit_gate_cold;
          Alcotest.test_case "namesake gates stay hot" `Quick test_namesake_gate_hot;
          Alcotest.test_case "tcp timer handlers are dispatch roots" `Quick
            test_tcp_timer_roots;
          Alcotest.test_case "unresolved named roots are listed absent" `Quick
            test_absent_named_roots;
          Alcotest.test_case "deterministic report" `Quick
            test_deterministic_output;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
        ] );
      ("hot-region", [ qc prop_hot_monotone ]);
    ]
