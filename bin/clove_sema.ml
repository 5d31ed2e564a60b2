(* clove-sema: clove-check's determinism, unit-safety and code rules
   (Analysis.Det_rules) alone, over the .cmt of the units under the given
   source roots (default: lib bin examples), with the shared suppression
   grammar applied.  Writes the findings as JSON; exits 1 if any is
   active, 2 on a bad argument or a root with no .cmt.

   Usage: clove_sema [-o report.json] [--cmt-root DIR] [root ...]

   DIR is the build root (default: _build/default when present, else .);
   sources resolve against the working directory. *)

let () =
  let report = ref "clove_sema_report.json" in
  let cmt_root = ref None in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest -> report := path; parse rest
    | "--cmt-root" :: dir :: rest -> cmt_root := Some dir; parse rest
    | ("-o" | "--cmt-root") :: [] ->
      prerr_endline "usage: clove_sema [-o report.json] [--cmt-root DIR] [root ...]";
      exit 2
    | root :: rest -> roots := root :: !roots; parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cmt_root = Option.value !cmt_root ~default:(Analysis.Cmt_load.default_root ()) in
  (* only each root's own build directory is read *)
  let load root =
    let prefix = if String.ends_with ~suffix:"/" root then root else root ^ "/" in
    match
      Analysis.Cmt_load.load ~root:(Filename.concat cmt_root root)
        ~source_prefixes:[ prefix ]
    with
    | [], _ ->
      Format.eprintf "clove-sema: no .cmt for root '%s' under '%s'@." root cmt_root;
      exit 2
    | units, _ -> units
  in
  let units =
    List.concat_map load
      (if !roots = [] then [ "lib"; "bin"; "examples" ] else List.rev !roots)
  in
  let findings =
    Analysis.Findings.suppress ~source_root:"."
      ~files:(List.map (fun u -> u.Analysis.Cmt_load.u_source) units)
      (Analysis.Det_rules.findings units)
  in
  Analysis.Json_out.(
    to_file !report
      (Obj
         [
           ("tool", String "clove-sema");
           ( "findings",
             Analysis.Findings.findings_json ~new_keys:(Hashtbl.create 1)
               findings );
         ]));
  match List.filter Analysis.Findings.is_active findings with
  | [] ->
    Format.printf "clove-sema: OK (%d unit(s), report: %s)@." (List.length units)
      !report
  | active ->
    List.iter
      (fun (f : Analysis.Findings.t) ->
        Format.eprintf "%s:%d: [%s] %s@." f.file f.line f.rule f.message)
      active;
    exit 1
