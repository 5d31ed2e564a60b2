type finding = { file : string; line : int; rule : string; message : string }

let rules =
  [
    ("obj-magic", "Obj.magic outside the explicit allowlist is GC-unsafe");
    ( "poly-compare",
      "polymorphic compare; use a typed compare (Int.compare, \
       Float.compare, Sim_time.compare, ...)" );
    ( "bare-ignore",
      "ignore (...) discards a result; bind it as let (_ : ty) = ... or \
       annotate the intent" );
    ( "hashtbl-find",
      "Hashtbl.find raises Not_found; prefer find_opt or annotate the \
       key-present invariant" );
    ( "float-eq",
      "exact float =/<> in a conditional; compare against a tolerance or \
       restructure" );
    ("missing-mli", "public library module without an .mli interface");
    Findings.allow_empty_rule;
  ]

let obj_magic_allowlist : string list = []

(* ------------------- comment / string masking --------------------- *)

let mask_comments_and_strings src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let depth = ref 0 in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '\''
  in
  while !i < n do
    let c = src.[!i] in
    if !depth > 0 then begin
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        incr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        decr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      depth := 1;
      blank !i;
      blank (!i + 1);
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        let d = src.[!i] in
        if d = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else begin
          blank !i;
          if d = '"' then fin := true;
          incr i
        end
      done
    end
    else if c = '\'' && (!i = 0 || not (is_ident src.[!i - 1])) then begin
      (* character literal, but not a type variable like 'a *)
      if !i + 2 < n && src.[!i + 1] <> '\\' && src.[!i + 2] = '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else if !i + 1 < n && src.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < n && !j < !i + 7 && src.[!j] <> '\'' do incr j done;
        if !j < n && src.[!j] = '\'' then begin
          for k = !i to !j do blank k done;
          i := !j + 1
        end
        else incr i
      end
      else incr i
    end
    else incr i
  done;
  Bytes.to_string out

(* ----------------------------- helpers ---------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let split_lines s =
  (* String.split_on_char keeps a trailing empty line; that is harmless
     because every rule needs a non-empty match *)
  String.split_on_char '\n' s

(* find all start positions of [needle] in [hay] *)
let occurrences needle hay =
  let acc = ref [] in
  let nl = String.length needle and hl = String.length hay in
  if nl > 0 then
    for p = 0 to hl - nl do
      if String.sub hay p nl = needle then acc := p :: !acc
    done;
  List.rev !acc

let ends_with_keyword line upto kw =
  (* does the code before position [upto], ignoring trailing blanks, end
     with the token [kw]? *)
  let j = ref (upto - 1) in
  while !j >= 0 && (line.[!j] = ' ' || line.[!j] = '\t') do decr j done;
  let e = !j in
  let kl = String.length kw in
  e >= kl - 1
  && String.sub line (e - kl + 1) kl = kw
  && (e - kl < 0 || not (is_ident_char line.[e - kl]))

(* ------------------------------ rules ----------------------------- *)

(* each rule: file basename -> masked line -> (message) list *)

let rule_obj_magic ~base line =
  if List.mem base obj_magic_allowlist then []
  else
    List.map
      (fun _ -> "Obj.magic sentinel; use an option slot or a real dummy value")
      (occurrences "Obj.magic" line)

let rule_poly_compare line =
  let flag_bare p =
    let before_ok =
      p = 0
      ||
      let c = line.[p - 1] in
      (not (is_ident_char c)) && c <> '.' && c <> '~' && c <> '?'
    in
    let after = p + String.length "compare" in
    let after_ok =
      after >= String.length line
      || (not (is_ident_char line.[after]))
         && line.[after] <> '\''
    in
    (* [let compare = ...] / [and compare = ...] define a typed compare *)
    before_ok && after_ok
    && (not (ends_with_keyword line p "let"))
    && not (ends_with_keyword line p "and")
  in
  let bare =
    List.filter flag_bare (occurrences "compare" line)
    |> List.map (fun _ ->
           "bare [compare] is polymorphic; pass the element type's compare")
  in
  let qualified =
    List.map
      (fun _ -> "Stdlib.compare is polymorphic; use a typed compare")
      (occurrences "Stdlib.compare" line)
  in
  bare @ qualified

let rule_bare_ignore line =
  List.filter_map
    (fun p ->
      let before_ok = p = 0 || not (is_ident_char line.[p - 1]) in
      if not before_ok then None
      else begin
        let j = ref (p + String.length "ignore") in
        if !j < String.length line && is_ident_char line.[!j] then None
        else begin
          while
            !j < String.length line && (line.[!j] = ' ' || line.[!j] = '\t')
          do
            incr j
          done;
          if !j >= String.length line || line.[!j] = '(' then
            Some
              "result silently discarded; bind it as let (_ : ty) = ... or \
               annotate why it is safe to drop"
          else None
        end
      end)
    (occurrences "ignore" line)

let rule_hashtbl_find line =
  List.filter_map
    (fun p ->
      let after = p + String.length "Hashtbl.find" in
      if after < String.length line && (is_ident_char line.[after]) then None
      else Some "raises Not_found on absent keys; prefer Hashtbl.find_opt")
    (occurrences "Hashtbl.find" line)

let has_token line tok =
  List.exists
    (fun p ->
      (p = 0 || not (is_ident_char line.[p - 1]))
      &&
      let e = p + String.length tok in
      e >= String.length line || not (is_ident_char line.[e]))
    (occurrences tok line)

(* operator then literal: [= 0.0], [<> 1.] *)
let op_lit = Str.regexp "\\(=\\|<>\\)[ \t]*[0-9]+\\.[0-9]*"

(* literal then operator: [0.0 = x] *)
let lit_op = Str.regexp "[0-9]+\\.[0-9]*[ \t]*\\(=\\|<>\\)"

let rule_float_eq line =
  let conditional =
    has_token line "if" || has_token line "when" || has_token line "while"
    || occurrences "&&" line <> []
    || occurrences "||" line <> []
  in
  if not conditional then []
  else begin
    let found = ref [] in
    let pos = ref 0 in
    (try
       while true do
         let p = Str.search_forward op_lit line !pos in
         let bad_prefix =
           p > 0 && String.contains "<>=!:+-*/." line.[p - 1]
         in
         if not bad_prefix then
           found := "exact float comparison" :: !found;
         pos := p + 1
       done
     with Not_found -> ());
    let pos = ref 0 in
    (try
       while true do
         let p = Str.search_forward lit_op line !pos in
         let e = Str.match_end () in
         let bad_prefix = p > 0 && String.contains "0123456789." line.[p - 1] in
         let bad_suffix =
           e < String.length line && String.contains "=." line.[e]
         in
         if (not bad_prefix) && not bad_suffix then
           found := "exact float comparison" :: !found;
         pos := p + 1
       done
     with Not_found -> ());
    !found
  end

(* --------------------------- driver core -------------------------- *)

let suppress ~file src findings =
  let markers = Findings.markers src in
  List.filter
    (fun f -> Findings.allowed markers ~rule:f.rule ~line:f.line = None)
    findings
  @ List.map
      (fun (line, message) ->
        { file; line; rule = fst Findings.allow_empty_rule; message })
      (Findings.allow_empty markers)

let check_source ~file src =
  let base = Filename.basename file in
  let masked_lines = Array.of_list (split_lines (mask_comments_and_strings src)) in
  let findings = ref [] in
  Array.iteri
    (fun i masked ->
      let line = i + 1 in
      let emit rule msgs =
        List.iter
          (fun message -> findings := { file; line; rule; message } :: !findings)
          msgs
      in
      emit "obj-magic" (rule_obj_magic ~base masked);
      emit "poly-compare" (rule_poly_compare masked);
      emit "bare-ignore" (rule_bare_ignore masked);
      emit "hashtbl-find" (rule_hashtbl_find masked);
      emit "float-eq" (rule_float_eq masked))
    masked_lines;
  suppress ~file src (List.rev !findings)
  |> List.stable_sort (fun a b -> Int.compare a.line b.line)

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
