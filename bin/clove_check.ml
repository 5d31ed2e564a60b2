(* clove-check driver: load every .cmt/.cmti under the build root once,
   build the call graph of the in-scope units once, run the race
   analysis (shared mutable state reached from the domain-parallel entry
   points) and the allocation analysis (allocation sites reached from the
   scheduler dispatch roots) over it, run the unused-export pass (in-scope
   interface values that no other loaded unit uses), the determinism,
   unit-safety and code rules (Analysis.Det_rules) and missing-mli (a
   lib/ implementation with no interface, Analysis.Lint), apply the
   source suppressions, and compare the merged findings against one
   committed baseline: sorted rule|file|target lines.

   Usage:
     clove_check [--cmt-root DIR]        build root ( default: _build/default
                                         when present, else . )
                 [--source-root DIR]     where the .cmt-recorded relative
                                         source paths resolve (default .)
                 [--scope PREFIX]*       source prefixes to analyze
                                         (default: lib/); every loaded
                                         unit outside test/ counts as a
                                         consumer, a test/ unit only
                                         when in scope
                 [--baseline FILE]       committed baseline to diff against
                                         (a line that is malformed, repeated
                                         or out of order exits 2)
                 [--write-baseline FILE] regenerate the baseline and exit
                 [-o FILE]               write the JSON report to FILE
                                         (no report without it)
                 [--bench-out FILE]      wall-time/count record

   Exit status: 0 clean (or only baselined/suppressed/cold findings),
   1 new findings, 2 usage or environment error. *)

let count_by key fs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let k = key f in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    fs;
  Hashtbl.fold (fun k n acc -> (k, Analysis.Json_out.Int n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let () =
  let cmt_root = ref None in
  let source_root = ref "." in
  let scopes = ref [] in
  let baseline = ref None in
  let write_baseline = ref None in
  let report_path = ref None in
  let bench_path = ref None in
  let usage () =
    prerr_endline
      "usage: clove_check [--cmt-root DIR] [--source-root DIR] [--scope PREFIX]* \
       [--baseline FILE] [--write-baseline FILE] [-o FILE] [--bench-out FILE]";
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--cmt-root" :: dir :: rest ->
      cmt_root := Some dir;
      parse_args rest
    | "--source-root" :: dir :: rest ->
      source_root := dir;
      parse_args rest
    | "--scope" :: prefix :: rest ->
      scopes := prefix :: !scopes;
      parse_args rest
    | "--baseline" :: path :: rest ->
      baseline := Some path;
      parse_args rest
    | "--write-baseline" :: path :: rest ->
      write_baseline := Some path;
      parse_args rest
    | "-o" :: path :: rest ->
      report_path := Some path;
      parse_args rest
    | "--bench-out" :: path :: rest ->
      bench_path := Some path;
      parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let cmt_root =
    match !cmt_root with Some d -> d | None -> Analysis.Cmt_load.default_root ()
  in
  let scopes = match List.rev !scopes with [] -> [ "lib/" ] | s -> s in
  let baseline_keys =
    match !baseline with
    | None -> Hashtbl.create 1
    | Some path -> (
      match Analysis.Findings.load_baseline path with
      | Ok keys -> keys
      | Error e ->
        Format.eprintf "clove-check: cannot read baseline %s: %s@." path e;
        exit 2)
  in
  (* analyzer harness timing, not simulation time — lint: allow sema-wall-clock *)
  let t0 = Unix.gettimeofday () in
  let all_units, intfs = Analysis.Cmt_load.load ~root:cmt_root ~source_prefixes:[] in
  let units =
    List.filter
      (fun u -> Analysis.Cmt_load.in_scope scopes u.Analysis.Cmt_load.u_source)
      all_units
  in
  if units = [] then begin
    Format.eprintf
      "clove-check: no .cmt files under '%s' for scope(s) %s — build with \
       -bin-annot first@."
      cmt_root
      (String.concat " " scopes);
    exit 2
  end;
  let l = Analysis.Race_extract.analyze units in
  let race = Analysis.Race_report.run l in
  let alloc =
    Analysis.Alloc_report.run ~cold:(Analysis.Alloc_extract.cold_spans units) l
  in
  let findings =
    Analysis.Findings.suppress ~source_root:!source_root
      ~files:l.Analysis.Race_extract.l_files
      (race.Analysis.Race_report.r_findings @ alloc.Analysis.Alloc_report.a_findings
      @ Analysis.Dead_export.findings ~scope:scopes all_units intfs
      @ Analysis.Det_rules.findings units
      @ Analysis.Lint.findings units intfs)
  in
  (* analyzer harness timing, not simulation time — lint: allow sema-wall-clock *)
  let wall_s = Unix.gettimeofday () -. t0 in
  let active = List.filter Analysis.Findings.is_active findings in
  let suppressed = List.length findings - List.length active in
  (match !write_baseline with
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Analysis.Findings.baseline_text findings));
    Format.printf "clove-check: baseline written to %s (%d entr%s)@." path
      (List.length active)
      (if List.length active = 1 then "y" else "ies");
    exit 0
  | None -> ());
  let fresh = Analysis.Findings.new_findings findings baseline_keys in
  let new_keys = Analysis.Findings.key_table fresh in
  let edges =
    Hashtbl.fold (fun _ cs acc -> acc + List.length cs) l.Analysis.Race_extract.l_calls 0
  in
  (* graph sizes, per-analysis summaries and active counts per rule:
     shared by the report and the bench record *)
  let summary =
    Analysis.Json_out.
      [
        ("units", Int (List.length all_units));
        ("interfaces", Int (List.length intfs));
        ("nodes", Int (List.length l.Analysis.Race_extract.l_nodes));
        ("call_edges", Int edges);
        ("race", Analysis.Race_report.summary_json race);
        ("alloc", Analysis.Alloc_report.summary_json alloc);
        ("per_rule", Obj (count_by (fun (f : Analysis.Findings.t) -> f.rule) active));
      ]
  in
  Option.iter
    (fun path ->
      Analysis.Json_out.(
        to_file path
          (Obj
         ([
            ("tool", String "clove-check");
            ("version", Int 1);
            ( "files",
              List (List.map (fun f -> String f) l.Analysis.Race_extract.l_files) );
          ]
         @ summary
         @ [
             ( "per_module",
               Obj (count_by (fun (f : Analysis.Findings.t) -> f.file) active) );
             ("findings", Analysis.Findings.findings_json ~new_keys findings);
           ]))))
    !report_path;
  (match !bench_path with
  | Some path ->
    Analysis.Json_out.(
      to_file path
        (Obj
           ([ ("benchmark", String "clove-check"); ("wall_s", Float wall_s) ]
           @ summary
           @ [
               ("findings", Int (List.length active));
               ("suppressed", Int suppressed);
               ("new_findings", Int (List.length fresh));
             ])))
  | None -> ());
  (* only *new* findings are printed in full — the baselined ones are
     in the report *)
  List.iter
    (fun (f : Analysis.Findings.t) ->
      Format.eprintf "%s:%d: [%s, NEW] %s@." f.file f.line f.rule f.message;
      List.iter (fun w -> Format.eprintf "    %s@." w) f.witness)
    fresh;
  Format.printf
    "clove-check: %d unit(s) (%d in scope), %d interface(s), %d node(s), %d \
     call edge(s); %d parallel root(s), %d dispatch root(s), %d hot \
     node(s); %d finding(s) (%d suppressed, %d new); report: %s@."
    (List.length all_units) (List.length units) (List.length intfs)
    (List.length l.Analysis.Race_extract.l_nodes)
    edges
    (List.length race.Analysis.Race_report.r_roots)
    (List.length alloc.Analysis.Alloc_report.a_roots)
    alloc.Analysis.Alloc_report.a_hot_nodes (List.length active) suppressed
    (List.length fresh)
    (Option.value !report_path ~default:"none (no -o)");
  if fresh <> [] then exit 1
