(* clove-sema driver: parse every [.ml] under the given roots (default:
   lib bin examples), run the AST-level determinism and unit-safety
   passes, and write the JSON report.  Exits 1 if any finding survives
   its suppression check.

   Usage: clove_sema [-o report.json] [--cmt-root DIR] [root ...]

   With [--cmt-root] the syntactic findings are refined against the
   compiler-generated typedtrees under DIR (see Sema.Typed_refine):
   recognizable false positives — benign Atomic.get reads in parallel
   modules — are dropped without needing suppression markers.

   Unused exports are reported by clove-check's typed dead-export pass,
   not here. *)

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
  let findings =
    List.concat_map
      (fun file -> Sema.Rules.analyze_source ~file (read_file file))
      ml_files
  in
  let findings, dropped =
    match !cmt_root with
    | None -> (findings, [])
    | Some dir ->
      let units, _ =
        Sema.Cmt_load.load ~root:dir
          ~source_prefixes:(List.map (fun r -> r ^ "/") roots)
      in
      Sema.Typed_refine.refine (Sema.Typed_refine.of_units units) findings
  in
  Analysis.Json_out.to_file !report_path
    (Sema.Rules.report_json ~findings ~files_analyzed:(List.length ml_files));
  List.iter (fun f -> Format.eprintf "%a@." Analysis.Lint.pp_finding f) findings;
  if findings <> [] then begin
    Format.eprintf "clove-sema: %d finding(s) in %d file(s); report: %s@."
      (List.length findings) (List.length ml_files) !report_path;
    exit 1
  end
  else
    Format.printf
      "clove-sema: OK (%d .ml files, %d typed refinement(s), report: %s)@."
      (List.length ml_files) (List.length dropped)
      !report_path
