(* clove-sema driver: parse every [.ml] under the given roots (default:
   lib bin examples), run the AST-level determinism and unit-safety
   passes, and write the cross-module JSON report.  Exits 1 if any
   finding survives its suppression check.

   Usage: clove_sema [-o report.json] [--cmt-root DIR] [root ...]

   With [--cmt-root] the syntactic findings are refined against the
   compiler-generated typedtrees under DIR (see Sema.Typed_refine):
   recognizable false positives — benign Atomic.get reads in parallel
   modules — are dropped without needing suppression markers.

   The [test] tree is not scanned for findings (tests may legitimately
   exercise forbidden constructs as fixtures) but its sources do count as
   consumers in the unused-export report. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let skip_dir name =
  name = "_build" || name = "results" || name = "fixtures"
  || (String.length name > 0 && name.[0] = '.')

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if skip_dir name then acc else walk (Filename.concat path name) acc)
      acc (Sys.readdir path)
  else path :: acc

let has_extension ext path = Filename.check_suffix path ext

let () =
  let report_path = ref "clove_sema_report.json" in
  let cmt_root = ref None in
  let roots = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "-o" :: path :: rest ->
      report_path := path;
      parse_args rest
    | "-o" :: [] ->
      prerr_endline "clove-sema: -o needs a path";
      exit 2
    | "--cmt-root" :: dir :: rest ->
      cmt_root := Some dir;
      parse_args rest
    | "--cmt-root" :: [] ->
      prerr_endline "clove-sema: --cmt-root needs a directory";
      exit 2
    | root :: rest ->
      roots := root :: !roots;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev !roots with
    | [] -> [ "lib"; "bin"; "examples" ]
    | roots -> roots
  in
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then begin
        Format.eprintf "clove-sema: root '%s' does not exist@." root;
        exit 2
      end)
    roots;
  let files = List.fold_left (fun acc root -> walk root acc) [] roots in
  let files = List.sort String.compare files in
  let ml_files = List.filter (has_extension ".ml") files in
  let mli_files = List.filter (has_extension ".mli") files in
  let ml_sources = List.map (fun f -> (f, read_file f)) ml_files in
  let mli_sources = List.map (fun f -> (f, read_file f)) mli_files in
  let findings =
    List.concat_map (fun (file, src) -> Sema.Rules.analyze_source ~file src) ml_sources
  in
  let findings, dropped =
    match !cmt_root with
    | None -> (findings, [])
    | Some dir ->
      let units =
        Sema.Cmt_load.load ~root:dir
          ~source_prefixes:(List.map (fun r -> r ^ "/") roots)
      in
      Sema.Typed_refine.refine (Sema.Typed_refine.of_units units) findings
  in
  (* tests consume exports without being subject to the passes *)
  let usage_sources =
    if Sys.file_exists "test" && Sys.is_directory "test" then
      let test_ml = List.filter (has_extension ".ml") (walk "test" []) in
      ml_sources @ List.map (fun f -> (f, read_file f)) test_ml
    else ml_sources
  in
  let graph = Sema.Rules.module_graph ml_sources in
  let unused = Sema.Rules.unused_exports ~ml_sources:usage_sources ~mli_sources in
  Analysis.Json_out.to_file !report_path
    (Sema.Rules.report_json ~findings ~graph ~unused
       ~files_analyzed:(List.length ml_files));
  List.iter (fun f -> Format.eprintf "%a@." Analysis.Lint.pp_finding f) findings;
  if findings <> [] then begin
    Format.eprintf "clove-sema: %d finding(s) in %d file(s); report: %s@."
      (List.length findings) (List.length ml_files) !report_path;
    exit 1
  end
  else
    Format.printf
      "clove-sema: OK (%d .ml files, %d unused-export candidates, %d typed \
       refinement(s), report: %s)@."
      (List.length ml_files) (List.length unused) (List.length dropped)
      !report_path
