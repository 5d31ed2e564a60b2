let rule = "missing-mli"

let check_interface_presence ~ml_files ~mli_files =
  let interfaces =
    List.map Filename.remove_extension mli_files |> List.sort_uniq String.compare
  in
  List.filter_map
    (fun ml ->
      let stem = Filename.remove_extension ml in
      if
        (not (String.starts_with ~prefix:"lib/" ml && Filename.check_suffix ml ".ml"))
        || List.mem stem interfaces
      then None
      else
        Some
          {
            Findings.rule;
            file = ml;
            line = 1;
            target = String.capitalize_ascii (Filename.basename stem);
            message =
              "library module has no .mli; every public module must declare \
               its interface";
            witness = [];
            extra = [];
            reason = None;
          })
    ml_files

let findings units intfs =
  check_interface_presence
    ~ml_files:(List.map (fun u -> u.Cmt_load.u_source) units)
    ~mli_files:(List.map (fun i -> i.Cmt_load.i_source) intfs)
