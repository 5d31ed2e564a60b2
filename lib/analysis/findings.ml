(* Shared findings layer of the static analyzers.

   clove-check (the typed analyses and rules) produces findings with one
   lifecycle: deterministic sorted serialization, a committed baseline
   keyed by (rule, file, target) — line numbers deliberately excluded so
   unrelated edits do not churn it — and a diff that fails CI only on
   *new* keys.  The source suppression grammar below is the one every
   rule id answers to. *)

type t = {
  rule : string;
  file : string;
  line : int;
  target : string;  (** stable identity within the file, line-free *)
  message : string;
  witness : string list;  (** rendered chain, root first; [] = none *)
  extra : (string * Json_out.t) list;  (** tool-specific JSON fields *)
  reason : string option;  (** suppression justification; [None] = active *)
}

let key f = f.rule ^ "|" ^ f.file ^ "|" ^ f.target

let is_active f = f.reason = None

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.target b.target
      | c -> c)
    | c -> c)
  | c -> c

let sort fs = List.sort compare_finding fs

(* --------------------------- suppressions ------------------------- *)

(* One grammar for every analyzer: a comment naming the rule on the
   flagged line or the line above, or a file-scoped variant anywhere in
   the file (the "allow-file" form of the marker).  Several rule ids may
   follow the keyword, separated by commas.  The justification is the
   rest of the comment text on the marker's line, before or after the
   marker; a marker whose justification has no letter suppresses
   nothing and is itself an [allow-empty] finding. *)

type marker = {
  m_line : int;
  m_file_scope : bool;
  m_rules : string list;
  m_reason : string;
}

(* group 1: the "-file" suffix; group 2: the comma-separated rule ids *)
let marker_re =
  let id = "[a-z][a-z0-9-]*" in
  Str.regexp
    ("lint:[ \t]*allow\\(-file\\)?[ \t]+\\(" ^ id ^ "\\([ \t]*,[ \t]*" ^ id
   ^ "\\)*\\)")

let has_letter s =
  String.exists (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) s

(* separators people put between a justification and the marker *)
let rec strip_separators s =
  let s = String.trim s in
  let n = String.length s in
  let seps = [ "—"; "--"; "-"; ":" ] in
  match List.find_opt (fun p -> String.starts_with ~prefix:p s) seps with
  | Some p ->
    strip_separators (String.sub s (String.length p) (n - String.length p))
  | None -> (
    match List.find_opt (fun p -> String.ends_with ~suffix:p s) seps with
    | Some p -> strip_separators (String.sub s 0 (n - String.length p))
    | None -> s)

(* the comment text around the marker at [start, stop): back to the
   comment opener (or the line start, inside a multi-line comment) and
   on to the closer (or the line end) *)
let reason_around line ~start ~stop =
  let rec opener i =
    if i < 0 then 0
    else if line.[i] = '(' && line.[i + 1] = '*' then i + 2
    else opener (i - 1)
  in
  let rec closer i =
    if i + 1 >= String.length line then String.length line
    else if line.[i] = '*' && line.[i + 1] = ')' then i
    else closer (i + 1)
  in
  let b = opener (start - 2) and e = closer stop in
  [ String.sub line b (start - b); String.sub line stop (e - stop) ]
  |> List.map strip_separators
  |> List.filter (fun s -> s <> "")
  |> String.concat " "

let markers_of_line ~lineno line =
  let rec go pos acc =
    match Str.search_forward marker_re line pos with
    | exception Not_found -> List.rev acc
    | start ->
      let stop = Str.match_end () in
      let file_scope =
        match Str.matched_group 1 line with
        | _ -> true
        | exception Not_found -> false
      in
      let rules =
        String.split_on_char ',' (Str.matched_group 2 line)
        |> List.map String.trim
      in
      let m =
        {
          m_line = lineno;
          m_file_scope = file_scope;
          m_rules = rules;
          m_reason = reason_around line ~start ~stop;
        }
      in
      go stop (m :: acc)
  in
  go 0 []

let markers src =
  String.split_on_char '\n' src
  |> List.mapi (fun i line -> markers_of_line ~lineno:(i + 1) line)
  |> List.concat

let justified m = has_letter m.m_reason

let allowed ms ~rule ~line =
  List.find_map
    (fun m ->
      if
        justified m && List.mem rule m.m_rules
        && (m.m_file_scope || m.m_line = line || m.m_line = line - 1)
      then Some m.m_reason
      else None)
    ms

let allow_empty_rule = "allow-empty"

let allow_empty ms =
  List.filter_map
    (fun m ->
      if justified m then None
      else
        Some
          ( m.m_line,
            Printf.sprintf "suppression of %s has no justification"
              (String.concat ", " m.m_rules) ))
    ms

let read_source path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let suppress ~source_root ~files fs =
  let cache = Hashtbl.create 64 in
  let markers_of file =
    match Hashtbl.find_opt cache file with
    | Some ms -> ms
    | None ->
      let ms =
        match read_source (Filename.concat source_root file) with
        | Some src -> markers src
        | None -> []
      in
      Hashtbl.replace cache file ms;
      ms
  in
  let fs =
    List.map
      (fun f ->
        if f.reason <> None then f
        else
          { f with reason = allowed (markers_of f.file) ~rule:f.rule ~line:f.line })
      fs
  in
  let empty =
    List.concat_map
      (fun file ->
        List.map
          (fun (line, message) ->
            {
              rule = allow_empty_rule;
              file;
              line;
              target = message;
              message;
              witness = [];
              extra = [];
              reason = None;
            })
          (allow_empty (markers_of file)))
      files
  in
  sort (fs @ empty)

(* ----------------------------- baseline --------------------------- *)

let baseline_json ~tool fs =
  Json_out.(
    Obj
      [
        ("tool", String tool);
        ("version", Int 1);
        ( "entries",
          List
            (List.filter_map
               (fun f ->
                 if is_active f then
                   Some
                     (Obj
                        [
                          ("rule", String f.rule);
                          ("file", String f.file);
                          ("target", String f.target);
                        ])
                 else None)
               (sort fs)) );
      ])

(* keys present in a committed baseline file; [Error] on parse trouble
   so CI fails loudly rather than treating everything as new *)
let load_baseline path =
  match Json_in.of_file path with
  | Error e -> Error e
  | Ok json -> (
    match Option.bind (Json_in.member "entries" json) Json_in.to_list with
    | None -> Error "baseline has no \"entries\" array"
    | Some entries ->
      let keys = Hashtbl.create 32 in
      List.iter
        (fun entry ->
          let field k = Option.bind (Json_in.member k entry) Json_in.to_string_opt in
          match (field "rule", field "file", field "target") with
          | Some rule, Some file, Some target ->
            Hashtbl.replace keys (rule ^ "|" ^ file ^ "|" ^ target) ()
          | _ -> ())
        entries;
      Ok keys)

let new_findings fs baseline_keys =
  List.filter (fun f -> is_active f && not (Hashtbl.mem baseline_keys (key f))) fs

let key_table fs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace tbl (key f) ()) fs;
  tbl

(* ------------------------------ output ---------------------------- *)

let finding_json ~new_keys f =
  Json_out.(
    Obj
      ([
         ("rule", String f.rule);
         ("file", String f.file);
         ("line", Int f.line);
         ("target", String f.target);
         ("message", String f.message);
       ]
      @ f.extra
      @ [
          ("witness", List (List.map (fun w -> String w) f.witness));
          ("suppressed", Bool (not (is_active f)));
          ("reason", match f.reason with Some r -> String r | None -> Null);
          ("new", Bool (Hashtbl.mem new_keys (key f)));
        ]))

let findings_json ~new_keys fs =
  Json_out.List (List.map (finding_json ~new_keys) (sort fs))
