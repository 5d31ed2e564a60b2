type finding = Analysis.Lint.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

let rules =
  [
    ( "sema-hashtbl-order",
      "Hashtbl.iter/fold whose closure mutates state or prints: bucket order \
       is nondeterministic, use Det.iter_sorted/fold_sorted" );
    ("sema-raw-random", "Random.* bypasses the seeded Engine.Rng streams");
    ( "sema-wall-clock",
      "Unix.gettimeofday/Unix.time/Sys.time bypasses Engine.Sim_time" );
    ( "sema-adhoc-seed",
      "Rng.create with an integer literal: constant seeds decouple a \
       component from the experiment seed" );
    ( "sema-fault-rng",
      "Rng.create inside lib/faults/: fault randomness must be a \
       Rng.split_named substream of the scenario stream so arming a plan \
       never perturbs the fault-free schedule" );
    ( "sema-wildcard-variant",
      "wildcard case in a match over protocol variants: new packet kinds \
       must fail to compile at every dispatch site" );
    ( "sema-time-boundary",
      "raw Sim_time ns conversion outside the conversion whitelist" );
    ( "sema-unit-mix",
      "+/- combining a time-looking operand with a byte/packet-looking one" );
    ( "sema-domain-parallel",
      "Domain/Mutex/Condition/Atomic/Thread primitive outside the parallel \
       runtime whitelist: simulation code must stay single-domain \
       deterministic, parallelism lives in Engine.Domain_pool" );
    ("sema-parse-error", "source file failed to parse");
    Analysis.Findings.allow_empty_rule;
  ]

let protocol_constructors =
  [
    (* Packet.payload *)
    "Tenant";
    "Probe";
    "Probe_reply";
    (* Packet.kind *)
    "Data";
    "Ack";
    (* Packet.ecn *)
    "Not_ect";
    "Ect";
    "Ce";
    (* Packet.clove_feedback *)
    "Fb_ecn";
    "Fb_util";
    "Fb_latency";
  ]

let time_boundary_whitelist =
  [ "lib/engine/"; "lib/transport/rtt_estimator.ml"; "lib/netsim/dre.ml" ]

(* The only files allowed to touch multicore primitives: the pool itself,
   the scheduler's atomic id counter, and the packet layer's atomic uid /
   domain-local free list.  Everything else must go through
   Engine.Domain_pool so experiment code cannot grow its own ad hoc
   threading. *)
let parallel_whitelist =
  [
    "lib/engine/domain_pool.ml";
    "lib/engine/scheduler.ml";
    "lib/netsim/packet.ml";
    "lib/netsim/packet_pool.ml";
  ]

let parallel_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Thread" ]

let raw_time_conversions = [ "to_ns"; "of_ns"; "span_ns"; "span_of_ns" ]

(* ------------------------------ helpers --------------------------- *)

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let lid_parts lid = try Longident.flatten lid with _ -> []

let last_two parts =
  match List.rev parts with
  | v :: m :: _ -> Some (m, v)
  | _ -> None

let parse_with ~file parser source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  parser lexbuf

(* ------------------------- effect detection ----------------------- *)

(* Functions that mutate their main argument (or perform output), keyed
   by module.  Used to decide whether a Hashtbl.iter/fold closure is
   order-sensitive. *)
let mutating_calls =
  [
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Array", [ "set"; "unsafe_set"; "fill"; "blit"; "sort" ]);
    ("Buffer", [ "clear"; "reset"; "truncate" ]);
    ("Printf", [ "printf"; "eprintf"; "fprintf"; "bprintf"; "kfprintf" ]);
    ("Format", [ "printf"; "eprintf"; "fprintf"; "kfprintf" ]);
  ]

let bare_mutators =
  [
    ":=";
    "incr";
    "decr";
    "print_string";
    "print_endline";
    "print_newline";
    "prerr_string";
    "prerr_endline";
    "output_string";
  ]

exception Effect_found of int * string

let effect_of_apply fn_parts =
  match fn_parts with
  | [ f ] when List.mem f bare_mutators -> Some (f ^ " in closure")
  | parts -> (
    match last_two parts with
    | Some (m, f) -> (
      match List.assoc_opt m mutating_calls with
      | Some fns when List.mem f fns -> Some (m ^ "." ^ f ^ " in closure")
      | Some _ | None ->
        if m = "Buffer" && String.length f >= 4 && String.sub f 0 4 = "add_" then
          Some ("Buffer." ^ f ^ " in closure")
        else None)
    | None -> None)

(* First side effect inside [e], if any: an assignment, a call to a known
   mutator, or output.  [ignore]d subtrees still count. *)
let find_effect (e : Parsetree.expression) =
  let open Parsetree in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_setfield (_, _, _) ->
            raise (Effect_found (line_of ex.pexp_loc, "record field assignment"))
          | Pexp_setinstvar (_, _) ->
            raise (Effect_found (line_of ex.pexp_loc, "instance variable assignment"))
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
            match effect_of_apply (lid_parts txt) with
            | Some what -> raise (Effect_found (line_of ex.pexp_loc, what))
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  try
    it.Ast_iterator.expr it e;
    None
  with Effect_found (line, what) -> Some (line, what)

(* -------------------------- U2 classification --------------------- *)

let time_tokens =
  [
    "ns"; "us"; "ms"; "sec"; "time"; "rtt"; "delay"; "gap"; "deadline";
    "interval"; "timeout"; "latency"; "span"; "rto"; "srtt";
  ]

let size_tokens = [ "bytes"; "byte"; "size"; "pkts"; "pkt"; "bits"; "mss" ]

type unit_guess = U_time | U_size | U_mixed | U_unknown

let tokens_of_ident name =
  String.split_on_char '_' (String.lowercase_ascii name)
  |> List.filter (fun s -> s <> "")

let guess_of_tokens tokens =
  let has set = List.exists (fun t -> List.mem t set) tokens in
  match (has time_tokens, has size_tokens) with
  | true, true -> U_mixed
  | true, false -> U_time
  | false, true -> U_size
  | false, false -> U_unknown

(* Vocabulary-based unit guess for an operand: collect every identifier
   and record-field name in the subtree and look for time-ish vs size-ish
   words.  Conservative: any conflict within one operand means unknown. *)
let unit_guess (e : Parsetree.expression) =
  let open Parsetree in
  let tokens = ref [] in
  let add name = tokens := tokens_of_ident name @ !tokens in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match List.rev (lid_parts txt) with v :: _ -> add v | [] -> ())
          | Pexp_field (_, { txt; _ }) -> (
            match List.rev (lid_parts txt) with v :: _ -> add v | [] -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.Ast_iterator.expr it e;
  guess_of_tokens !tokens

(* ------------------------- wildcard variants ---------------------- *)

let rec pattern_constructors acc (p : Parsetree.pattern) =
  let open Parsetree in
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
    let acc =
      match List.rev (lid_parts txt) with c :: _ -> c :: acc | [] -> acc
    in
    (match arg with Some (_, q) -> pattern_constructors acc q | None -> acc)
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_lazy q | Ppat_open (_, q)
  | Ppat_exception q ->
    pattern_constructors acc q
  | Ppat_or (a, b) -> pattern_constructors (pattern_constructors acc a) b
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pattern_constructors acc ps
  | Ppat_record (fields, _) ->
    List.fold_left (fun acc (_, q) -> pattern_constructors acc q) acc fields
  | Ppat_variant (_, Some q) -> pattern_constructors acc q
  | _ -> acc

let rec is_catch_all (p : Parsetree.pattern) =
  let open Parsetree in
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> is_catch_all q
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

(* ----------------------------- per-file pass ---------------------- *)

let has_prefix_in prefixes file =
  List.exists
    (fun prefix ->
      String.length file >= String.length prefix
      && String.sub file 0 (String.length prefix) = prefix)
    prefixes

let whitelisted file = has_prefix_in time_boundary_whitelist file

let first_positional args =
  let open Parsetree in
  List.find_map
    (function Asttypes.Nolabel, (e : expression) -> Some e | _ -> None)
    args

let collect_findings ~file (str : Parsetree.structure) =
  let open Parsetree in
  let findings = ref [] in
  let add ~line ~rule message = findings := { file; line; rule; message } :: !findings in
  let check_expr ex =
    match ex.pexp_desc with
    (* D1: order-sensitive Hashtbl traversal *)
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as fn), args) -> (
      (match lid_parts txt with
      | [ "Hashtbl"; ("iter" | "fold") ] -> (
        match first_positional args with
        | Some closure -> (
          match find_effect closure with
          | Some (_, what) ->
            let op = match lid_parts txt with [ _; op ] -> op | _ -> "iter" in
            add ~line:(line_of fn.pexp_loc) ~rule:"sema-hashtbl-order"
              (Printf.sprintf
                 "Hashtbl.%s closure has a side effect (%s); bucket order is \
                  nondeterministic — use Det.%s_sorted with a typed compare"
                 op what op)
          | None -> ())
        | None -> ())
      | _ -> ());
      (* D2c: constant seeds; R1: fresh streams in the fault subsystem *)
      (match last_two (lid_parts txt) with
      | Some ("Rng", "create") ->
        (* R1 first: inside lib/faults/ ANY Rng.create is wrong, literal
           seed or not — the engine must draw from a split_named substream
           of the scenario stream (substreams derive without advancing the
           parent, which is what keeps the fault-free control byte-identical) *)
        if has_prefix_in [ "lib/faults/" ] file then
          add ~line:(line_of ex.pexp_loc) ~rule:"sema-fault-rng"
            "Rng.create in the fault subsystem: take a ~rng built with \
             Rng.split_named from the scenario stream instead"
        else (
          match args with
          | (_, { pexp_desc = Pexp_constant (Pconst_integer _); _ }) :: _ ->
            add ~line:(line_of ex.pexp_loc) ~rule:"sema-adhoc-seed"
              "Rng.create with a literal seed: derive from the experiment seed \
               (Rng.split_named) or take a seed parameter"
          | _ -> ())
      | _ -> ());
      (* U2: mixed-unit arithmetic *)
      match ex.pexp_desc with
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
            [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] )
        when op = "+" || op = "-" || op = "+." || op = "-." -> (
        match (unit_guess a, unit_guess b) with
        | U_time, U_size | U_size, U_time ->
          add ~line:(line_of ex.pexp_loc) ~rule:"sema-unit-mix"
            (Printf.sprintf
               "(%s) combines a time-like operand with a byte/packet-like one; \
                use the Sim_time algebra or convert explicitly"
               op)
        | _ -> ())
      | _ -> ())
    (* D2a/b and U1: suspicious identifiers *)
    | Pexp_ident { txt; _ } -> (
      let parts = lid_parts txt in
      let parts =
        match parts with "Stdlib" :: rest -> rest | parts -> parts
      in
      match parts with
      | "Random" :: _ :: _ ->
        add ~line:(line_of ex.pexp_loc) ~rule:"sema-raw-random"
          (Printf.sprintf "%s: draw from an Engine.Rng stream instead"
             (String.concat "." parts))
      | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
        add ~line:(line_of ex.pexp_loc) ~rule:"sema-wall-clock"
          (Printf.sprintf
             "%s reads the wall clock; simulation time comes from \
              Engine.Sim_time"
             (String.concat "." parts))
      | m :: _ :: _ when List.mem m parallel_modules ->
        if not (has_prefix_in parallel_whitelist file) then
          add ~line:(line_of ex.pexp_loc) ~rule:"sema-domain-parallel"
            (Printf.sprintf
               "%s: multicore primitives are confined to Engine.Domain_pool \
                and the packet layer; fan work out with Domain_pool.map \
                instead"
               (String.concat "." parts))
      | _ -> (
        match last_two parts with
        | Some ("Sim_time", f) when List.mem f raw_time_conversions ->
          if not (whitelisted file) then
            add ~line:(line_of ex.pexp_loc) ~rule:"sema-time-boundary"
              (Printf.sprintf
                 "Sim_time.%s outside the conversion whitelist; use the typed \
                  span algebra (add/diff/mul_span/of_span)"
                 f)
        | _ -> ()))
    (* D3: wildcard over protocol variants *)
    | Pexp_match (_, cases) | Pexp_function cases ->
      let mentioned =
        List.concat_map (fun c -> pattern_constructors [] c.pc_lhs) cases
      in
      if List.exists (fun c -> List.mem c protocol_constructors) mentioned then
        List.iter
          (fun c ->
            if is_catch_all c.pc_lhs then
              add ~line:(line_of c.pc_lhs.ppat_loc) ~rule:"sema-wildcard-variant"
                "catch-all case in a match over protocol variants; name every \
                 constructor so new packet kinds fail to compile here")
          cases
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          check_expr ex;
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.Ast_iterator.structure it str;
  List.rev !findings

let analyze_source ~file source =
  match parse_with ~file Parse.implementation source with
  | exception _ ->
    [ { file; line = 1; rule = "sema-parse-error"; message = "failed to parse" } ]
  | str ->
    collect_findings ~file str
    |> Analysis.Lint.suppress ~file source
    |> List.sort (fun a b ->
           match Int.compare a.line b.line with
           | 0 -> String.compare a.rule b.rule
           | c -> c)

(* --------------------------- cross-module ------------------------- *)

type module_info = { mi_file : string; mi_module : string; mi_deps : string list }

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Every qualified identifier mentioned anywhere in the AST: expression
   heads, constructors, record fields, type constructors, module paths,
   opens. *)
let collect_longidents (str : Parsetree.structure) =
  let open Parsetree in
  let acc = ref [] in
  let add { Location.txt; _ } = acc := lid_parts txt :: !acc in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident lid | Pexp_construct (lid, _) | Pexp_field (_, lid)
          | Pexp_setfield (_, lid, _) | Pexp_new lid ->
            add lid
          | Pexp_record (fields, _) -> List.iter (fun (lid, _) -> add lid) fields
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_construct (lid, _) -> add lid
          | Ppat_record (fields, _) -> List.iter (fun (lid, _) -> add lid) fields
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> add lid
          | _ -> ());
          Ast_iterator.default_iterator.typ self t);
      module_expr =
        (fun self m ->
          (match m.pmod_desc with Pmod_ident lid -> add lid | _ -> ());
          Ast_iterator.default_iterator.module_expr self m);
      open_description =
        (fun self od ->
          add od.popen_expr;
          Ast_iterator.default_iterator.open_description self od);
    }
  in
  it.Ast_iterator.structure it str;
  !acc

let parsed_sources sources =
  List.filter_map
    (fun (file, src) ->
      match parse_with ~file Parse.implementation src with
      | exception _ -> None
      | str -> Some (file, str))
    sources

let module_graph sources =
  let parsed = parsed_sources sources in
  let scanned =
    List.map (fun (file, _) -> module_name_of_file file) parsed
  in
  List.map
    (fun (file, str) ->
      let self = module_name_of_file file in
      let deps =
        collect_longidents str
        |> List.concat_map (fun parts ->
               match List.rev parts with
               | [] -> []
               | _value :: path -> List.rev path)
        |> List.filter (fun m -> m <> self && List.mem m scanned)
        |> List.sort_uniq String.compare
      in
      { mi_file = file; mi_module = self; mi_deps = deps })
    parsed
  |> List.sort (fun a b -> String.compare a.mi_file b.mi_file)

let unused_exports ~ml_sources ~mli_sources =
  let exports =
    List.concat_map
      (fun (file, src) ->
        match parse_with ~file Parse.interface src with
        | exception _ -> []
        | sg ->
          let m = module_name_of_file file in
          List.filter_map
            (fun (item : Parsetree.signature_item) ->
              match item.psig_desc with
              | Parsetree.Psig_value vd ->
                Some (m, vd.Parsetree.pval_name.Location.txt, file)
              | _ -> None)
            sg)
      mli_sources
  in
  let used = Hashtbl.create 256 in
  List.iter
    (fun (file, str) ->
      let self = module_name_of_file file in
      List.iter
        (fun parts ->
          match last_two parts with
          | Some (m, v) when m <> self -> Hashtbl.replace used (m, v) ()
          | _ -> ())
        (collect_longidents str))
    (parsed_sources ml_sources);
  List.filter (fun (m, v, _) -> not (Hashtbl.mem used (m, v))) exports
  |> List.sort (fun (m1, v1, f1) (m2, v2, f2) ->
         match String.compare m1 m2 with
         | 0 -> (
           match String.compare v1 v2 with
           | 0 -> String.compare f1 f2
           | c -> c)
         | c -> c)

(* ------------------------------- report --------------------------- *)

(* the parsetree rules carry no stable line-free identity, so the
   message doubles as the target; suppressions are in-source markers
   handled during analysis, never here *)
let to_shared f =
  {
    Analysis.Findings.rule = f.rule;
    file = f.file;
    line = f.line;
    target = f.message;
    message = f.message;
    witness = [];
    extra = [];
    reason = None;
  }

let report_json ~findings ~graph ~unused ~files_analyzed =
  (* deterministic artifact ordering, independent of traversal order *)
  let findings =
    List.sort
      (fun a b ->
        match String.compare a.file b.file with
        | 0 -> (
          match Int.compare a.line b.line with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
        | c -> c)
      findings
  in
  let graph =
    List.sort (fun a b -> String.compare a.mi_module b.mi_module) graph
  in
  let unused =
    List.sort
      (fun (m1, v1, f1) (m2, v2, f2) ->
        match String.compare m1 m2 with
        | 0 -> (
          match String.compare v1 v2 with 0 -> String.compare f1 f2 | c -> c)
        | c -> c)
      unused
  in
  let open Analysis.Json_out in
  Obj
    [
      ("tool", String "clove-sema");
      ("version", Int 1);
      ("files_analyzed", Int files_analyzed);
      ( "rules",
        List
          (List.map
             (fun (id, descr) ->
               Obj [ ("id", String id); ("description", String descr) ])
             rules) );
      ( "findings",
        (* shared emission path with clove-check; sema has no
           baseline, so nothing is ever "new" *)
        Analysis.Findings.findings_json ~new_keys:(Hashtbl.create 1)
          (List.map to_shared findings) );
      ( "call_graph",
        List
          (List.map
             (fun mi ->
               Obj
                 [
                   ("module", String mi.mi_module);
                   ("file", String mi.mi_file);
                   ("deps", List (List.map (fun d -> String d) mi.mi_deps));
                 ])
             graph) );
      ( "unused_exports",
        List
          (List.map
             (fun (m, v, file) ->
               Obj
                 [
                   ("module", String m);
                   ("value", String v);
                   ("file", String file);
                 ])
             unused) );
    ]
