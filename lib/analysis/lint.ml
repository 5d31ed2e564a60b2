type finding = { file : string; line : int; rule : string; message : string }

let check_interface_presence ~ml_files ~mli_files =
  let interfaces =
    List.map Filename.remove_extension mli_files
    |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun ml ->
      let stem = Filename.remove_extension ml in
      if List.mem stem interfaces then None
      else
        Some
          {
            file = ml;
            line = 1;
            rule = "missing-mli";
            message =
              "library module has no .mli; every public module must \
               declare its interface";
          })
    ml_files

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.message
