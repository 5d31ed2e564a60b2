(* clove-lint driver: walk the given roots (default: lib bin examples)
   and check that every library module ships an interface.  Exits 1 on
   a module without one, 2 on a root that does not exist. *)

let skip_dir name =
  name = "_build" || name = "results" || (String.length name > 0 && name.[0] = '.')

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if skip_dir name then acc else walk (Filename.concat path name) acc)
      acc (Sys.readdir path)
  else path :: acc

let has_extension ext path = Filename.check_suffix path ext

(* [missing-mli] applies to library modules only: executables and
   examples are entry points, not public API *)
let wants_interface path =
  String.length path >= 4 && String.sub path 0 4 = "lib/"

let () =
  let roots =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as roots) -> roots
    | _ -> [ "lib"; "bin"; "examples" ]
  in
  (* a typo'd root must not silently lint nothing and report OK *)
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then begin
        Format.eprintf "clove-lint: root '%s' does not exist@." root;
        exit 2
      end)
    roots;
  let files = List.fold_left (fun acc root -> walk root acc) [] roots in
  let files = List.sort String.compare files in
  let ml_files = List.filter (has_extension ".ml") files in
  let mli_files = List.filter (has_extension ".mli") files in
  let findings =
    Analysis.Lint.check_interface_presence
      ~ml_files:(List.filter wants_interface ml_files)
      ~mli_files
  in
  List.iter
    (fun f -> Format.eprintf "%a@." Analysis.Lint.pp_finding f)
    findings;
  if findings <> [] then begin
    Format.eprintf "clove-lint: %d finding(s) in %d file(s)@."
      (List.length findings) (List.length ml_files);
    exit 1
  end
  else
    Format.printf "clove-lint: OK (%d .ml files, %d interfaces, 0 findings)@."
      (List.length ml_files) (List.length mli_files)
