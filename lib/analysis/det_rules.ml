(* The determinism, unit-safety and code rules of clove-check, over the
   typedtree: every name is a resolved [Path.t], so the rules match on
   what an identifier is, not on how it is spelled. *)

open Typedtree

let rules =
  [
    ( "sema-hashtbl-order",
      "Hashtbl.iter/fold or Int_table.fold whose closure mutates state \
       or prints: table order is unsorted, iterate Int_table.sorted_keys or \
       Int_table.iter_sorted" );
    ("sema-raw-random", "Random.* bypasses the seeded Engine.Rng streams");
    ( "sema-wall-clock",
      "Unix.gettimeofday/Unix.time/Sys.time bypasses Engine.Sim_time" );
    ( "sema-adhoc-seed",
      "Rng.create with an integer literal: constant seeds decouple a \
       component from the experiment seed; derive with Rng.split_named or \
       take a seed parameter" );
    ( "sema-fault-rng",
      "Rng.create inside lib/faults/: fault randomness must be a \
       Rng.split_named substream of the scenario stream so arming a plan \
       never perturbs the fault-free schedule" );
    ( "sema-wildcard-variant",
      "wildcard case in a match over protocol variants: new packet kinds \
       must fail to compile at every dispatch site" );
    ( "sema-time-boundary",
      "raw Sim_time ns conversion outside the conversion whitelist: use the \
       typed span algebra (add/diff/mul_span/of_span)" );
    ( "sema-unit-mix",
      "+/- combining a time-looking operand with a byte/packet-looking one" );
    ( "sema-domain-parallel",
      "Domain/Mutex/Condition/Atomic/Thread primitive outside the parallel \
       runtime whitelist: simulation code must stay single-domain \
       deterministic, parallelism lives in Engine.Domain_pool" );
    ( "obj-magic",
      "Obj.magic defeats the type system; use an option slot or a real dummy \
       value" );
    ( "poly-compare",
      "a call into OCaml's generic structural compare or hash: it ignores \
       the type's own ordering and walks the value in C; use the type's \
       compare/equal, Int.min/Int.max or a pattern match" );
    ( "bare-ignore",
      "a computed result is silently discarded; bind it as let (_ : ty) = \
       ... or say why it is safe to drop" );
    ( "hashtbl-find",
      "Hashtbl.find raises Not_found on an absent key; use Hashtbl.find_opt" );
    ("float-eq", "exact float comparison against a literal");
  ]

let time_boundary_whitelist =
  [ "lib/engine/"; "lib/transport/rtt_estimator.ml"; "lib/netsim/dre.ml" ]

(* The only files allowed to touch multicore primitives: the pool itself,
   the scheduler's domain-local component ids, and the packet layer's
   domain-local flow-key scratch and free list. *)
let parallel_whitelist =
  [
    "lib/engine/domain_pool.ml";
    "lib/engine/scheduler.ml";
    "lib/netsim/packet.ml";
    "lib/netsim/packet_pool.ml";
  ]

let parallel_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Thread" ]
let raw_time_conversions = [ "to_ns"; "of_ns"; "span_ns"; "span_of_ns" ]
let protocol_types = [ "payload"; "tcp_kind"; "ecn"; "clove_feedback" ]

(* effects in an iteration closure besides the race analysis's mutators *)
let is_output (m, v) =
  match m with
  | "Printf" | "Format" ->
    List.mem v [ "printf"; "eprintf"; "fprintf"; "bprintf"; "kfprintf"; "kbprintf" ]
  | "Stdlib" ->
    List.exists
      (fun p -> String.starts_with ~prefix:p v)
      [ "print_"; "prerr_"; "output" ]
  | _ -> false

let time_tokens =
  [
    "ns"; "us"; "ms"; "sec"; "time"; "rtt"; "delay"; "gap"; "deadline";
    "interval"; "timeout"; "latency"; "span"; "rto"; "srtt";
  ]

let size_tokens = [ "bytes"; "byte"; "size"; "pkts"; "pkt"; "bits"; "mss" ]

(* a prefix starts [file] or starts right after one of its '/' *)
let under prefixes file =
  let rec tails = function
    | [] -> []
    | _ :: rest as l -> String.concat "/" l :: tails rest
  in
  List.exists
    (fun tail ->
      List.exists (fun prefix -> String.starts_with ~prefix tail) prefixes)
    (tails (String.split_on_char '/' file))

type ctx = {
  unit_ : Cmt_load.unit_info;
  in_lib : bool;  (* under lib/: held to the generic-compare rules *)
  aliases : Cmt_load.aliases;
  mutable binding : string;  (* enclosing top-level binding *)
  mutable found : Findings.t list;
}

let add ctx ~rule (loc : Location.t) what =
  ctx.found <-
    {
      Findings.rule;
      file = ctx.unit_.Cmt_load.u_source;
      line = loc.loc_start.pos_lnum;
      target = ctx.unit_.Cmt_load.u_short ^ "." ^ ctx.binding;
      message = what ^ " — " ^ List.assoc rule rules;
      witness = [];
      extra = [];
      reason = None;
    }
    :: ctx.found

(* ------------------------- path resolution ------------------------ *)

(* a module alias, structure-level or [let module] *)
let alias ctx id me =
  let (_ : bool) = Cmt_load.record_alias ctx.aliases id me in
  ()

(* A path into the standard distribution with [Stdlib] stripped:
   [Stdlib.Hashtbl.iter], [Stdlib__Hashtbl.iter] and an aliased [H.iter]
   are all [["Hashtbl"; "iter"]]; a path anywhere else is [[]]. *)
let stdlib_name ctx p =
  match Path.flatten (Cmt_load.resolve ctx.aliases p) with
  | `Ok (id, rest) when Ident.global id -> (
    match Ident.name id with
    | "Stdlib" -> rest
    | m when String.starts_with ~prefix:"Stdlib__" m ->
      Cmt_load.short_of_modname m :: rest
    | ("Unix" | "Thread") as m -> m :: rest
    | _ -> [])
  | _ -> []

let project_name ctx p = Race_extract.suffix2 (Cmt_load.resolve ctx.aliases p)

(* ------------------------ closures and operands ------------------- *)

exception Found of string

let scan (f : expression -> unit) e =
  let super = Tast_iterator.default_iterator in
  let it = { super with expr = (fun self ex -> f ex; super.expr self ex) } in
  it.expr it e

(* first side effect inside [e]: an assignment, a call to a known
   mutator, or output; [ignore]d subtrees still count *)
let first_effect ctx e =
  let effect_of_call p =
    match project_name ctx p with
    | None -> None
    | Some (m, v) -> (
      match Race_extract.classify_mutator (m, v) with
      | Some (prim, _, _) -> Some prim
      | None -> if is_output (m, v) then Some (m ^ "." ^ v) else None)
  in
  match
    scan
      (fun ex ->
        match ex.exp_desc with
        | Texp_setfield _ -> raise (Found "record field assignment")
        | Texp_setinstvar _ -> raise (Found "instance variable assignment")
        | Texp_letmodule (id, _, _, me, _) -> alias ctx id me
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
          Option.iter (fun prim -> raise (Found prim)) (effect_of_call p)
        | _ -> ())
      e
  with
  | () -> None
  | exception Found what -> Some what

(* Vocabulary-based unit of an operand, from every identifier and
   record-field name in it: [`Other] on no evidence or a conflict. *)
let unit_guess e =
  let tokens = ref [] in
  let add name =
    tokens := String.split_on_char '_' (String.lowercase_ascii name) @ !tokens
  in
  scan
    (fun ex ->
      match ex.exp_desc with
      | Texp_ident (p, _, _) -> add (Path.last p)
      | Texp_field (_, _, lbl) -> add lbl.Types.lbl_name
      | _ -> ())
    e;
  let has set = List.exists (fun t -> List.mem t set) !tokens in
  match (has time_tokens, has size_tokens) with
  | true, false -> `Time
  | false, true -> `Size
  | _ -> `Other

(* ------------------------ protocol variants ----------------------- *)

let is_protocol ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    let p = Cmt_load.resolve ctx.aliases p in
    List.mem (Path.last p) protocol_types
    &&
    match (p, Race_extract.suffix2 p) with
    | Path.Pident _, _ -> ctx.unit_.Cmt_load.u_short = "Packet"
    | _, Some ("Packet", _) -> true
    | _ -> false)
  | _ -> false

let rec catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_alias (q, _, _) -> catch_all q
  | Tpat_or (a, b, _) -> catch_all a || catch_all b
  | Tpat_value v -> catch_all (v :> value general_pattern)
  | _ -> false

(* a match that discriminates on a protocol value must name every
   constructor: a catch-all beside a real case is flagged *)
let check_cases : type k. ctx -> Types.type_expr -> k case list -> unit =
 fun ctx scrutinee cases ->
  if
    is_protocol ctx scrutinee
    && not (List.for_all (fun c -> catch_all c.c_lhs) cases)
  then
    List.iter
      (fun c ->
        if catch_all c.c_lhs then
          add ctx ~rule:"sema-wildcard-variant" c.c_lhs.pat_loc "catch-all case")
      cases

(* ------------------------- generic compare ------------------------ *)

(* the standard library's manifest abbreviations of predefined types *)
let stdlib_abbrevs =
  Predef.
    [
      ("Int", path_int); ("Bool", path_bool); ("Char", path_char);
      ("Unit", path_unit); ("Float", path_float); ("String", path_string);
      ("Bytes", path_bytes); ("Int32", path_int32); ("Int64", path_int64);
      ("Nativeint", path_nativeint);
    ]

(* values that are unboxed words: hashing one reads no block *)
let immediate = Predef.[ path_int; path_bool; path_char; path_unit ]

(* ocamlopt compiles a comparison at these types inline or to a typed C
   compare, never to the generic one *)
let specialized =
  immediate
  @ Predef.[ path_float; path_string; path_bytes; path_int32; path_int64; path_nativeint ]

(* [ty] is one of [paths], also through an abbreviation of [stdlib_abbrevs]
   ([String.t], [Float.t]) *)
let is_type_in ctx paths ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
    List.exists (Path.same p) paths
    ||
    match stdlib_name ctx p with
    | [ m; "t" ] -> (
      match List.assoc_opt m stdlib_abbrevs with
      | Some q -> List.exists (Path.same q) paths
      | None -> false)
    | _ -> false)
  | _ -> false

(* [op] applied to [operands] calls the generic structural compare:
   ocamlopt specializes it by the operands' type, and [=]/[<>] against
   a constant constructor to an integer compare *)
let is_generic_compare ctx op = function
  | [] -> false
  | (a : expression) :: _ as operands ->
    not
      (is_type_in ctx specialized a.exp_type
      || ((op = "=" || op = "<>")
         && List.exists Race_extract.is_constant_constructor operands))

(* ------------------------------ rules ----------------------------- *)

let check_ident ctx (e : expression) p =
  let file = ctx.unit_.Cmt_load.u_source in
  match stdlib_name ctx p with
  | [ "Obj"; "magic" ] -> add ctx ~rule:"obj-magic" e.exp_loc "Obj.magic"
  | [ "compare" ] -> add ctx ~rule:"poly-compare" e.exp_loc "Stdlib.compare"
  (* functions, never specialized: applied or passed, each use is a call
     whose body is the generic [<=] *)
  | [ (("min" | "max") as f) ] when ctx.in_lib ->
    add ctx ~rule:"poly-compare" e.exp_loc ("Stdlib." ^ f)
  | [ "Hashtbl"; "find" ] ->
    add ctx ~rule:"hashtbl-find" e.exp_loc "Hashtbl.find"
  | "Random" :: _ :: _ as parts ->
    add ctx ~rule:"sema-raw-random" e.exp_loc (String.concat "." parts)
  | ([ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ]) as parts ->
    add ctx ~rule:"sema-wall-clock" e.exp_loc (String.concat "." parts)
  | m :: _ :: _ as parts when List.mem m parallel_modules ->
    if not (under parallel_whitelist file) then
      add ctx ~rule:"sema-domain-parallel" e.exp_loc (String.concat "." parts)
  | _ -> (
    match project_name ctx p with
    | Some ("Sim_time", f)
      when List.mem f raw_time_conversions
           && not (under time_boundary_whitelist file) ->
      add ctx ~rule:"sema-time-boundary" e.exp_loc ("Sim_time." ^ f)
    | _ -> ())

(* a value that was already there: discarding it computes nothing *)
let is_variable (e : expression) =
  match e.exp_desc with Texp_ident _ -> true | _ -> false

let is_float_literal (e : expression) =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float _) -> true
  | _ -> false

(* an unsorted traversal (either table type) whose closure has an effect *)
let check_table_order ctx (fn : expression) traversal closure =
  Option.iter
    (fun what ->
      add ctx ~rule:"sema-hashtbl-order" fn.exp_loc
        (Printf.sprintf "%s closure: %s" traversal what))
    (first_effect ctx closure)

let check_apply ctx (e : expression) (fn : expression) p args =
  let positional =
    List.filter_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args
  in
  (match (stdlib_name ctx p, positional) with
  (* the typechecker turns [x |> ignore] and [ignore @@ x] into [ignore x] *)
  | [ "ignore" ], [ a ] when not (is_variable a) ->
    add ctx ~rule:"bare-ignore" e.exp_loc "ignore"
  (* a float literal operand types the comparison at float *)
  | [ (("=" | "<>") as op) ], [ a; b ]
    when is_float_literal a || is_float_literal b ->
    add ctx ~rule:"float-eq" e.exp_loc ("(" ^ op ^ ")")
  | [ (("=" | "<>" | "<" | ">" | "<=" | ">=") as op) ], operands
    when ctx.in_lib && is_generic_compare ctx op operands ->
    add ctx ~rule:"poly-compare" e.exp_loc ("generic (" ^ op ^ ")")
  | [ "Hashtbl"; "hash" ], [ a ]
    when ctx.in_lib && not (is_type_in ctx immediate a.exp_type) ->
    add ctx ~rule:"poly-compare" e.exp_loc "generic Hashtbl.hash"
  | [ "Hashtbl"; (("iter" | "fold") as op) ], closure :: _ ->
    check_table_order ctx fn ("Hashtbl." ^ op) closure
  | [ (("+" | "-" | "+." | "-.") as op) ], [ a; b ] -> (
    match (unit_guess a, unit_guess b) with
    | `Time, `Size | `Size, `Time ->
      add ctx ~rule:"sema-unit-mix" e.exp_loc ("(" ^ op ^ ")")
    | _ -> ())
  | _ -> ());
  match (project_name ctx p, positional) with
  | Some ("Rng", "create"), _
    when under [ "lib/faults/" ] ctx.unit_.Cmt_load.u_source ->
    (* any Rng.create, literal seed or not: substreams derive without
       advancing the parent, which keeps the fault-free control
       byte-identical *)
    add ctx ~rule:"sema-fault-rng" e.exp_loc "Rng.create"
  | Some ("Rng", "create"),
    { exp_desc = Texp_constant (Asttypes.Const_int n); _ } :: _ ->
    add ctx ~rule:"sema-adhoc-seed" e.exp_loc (Printf.sprintf "Rng.create %d" n)
  | Some ("Int_table", "fold"), closure :: _ ->
    check_table_order ctx fn "Int_table.fold" closure
  | _ -> ()

let check_unit (u : Cmt_load.unit_info) =
  let ctx =
    {
      unit_ = u;
      (* tools and harnesses outside lib/ may pay for the generic compare *)
      in_lib = under [ "lib/" ] u.Cmt_load.u_source;
      aliases = Cmt_load.aliases ();
      binding = "<init>";
      found = [];
    }
  in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      structure_item =
        (fun self si ->
          (match si.str_desc with
          | Tstr_value (_, vb :: _) ->
            ctx.binding <-
              (match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Ident.name id
              | _ -> "<init>")
          | Tstr_eval _ -> ctx.binding <- "<init>"
          | _ -> ());
          super.structure_item self si);
      module_binding =
        (fun self mb ->
          alias ctx mb.mb_id mb.mb_expr;
          super.module_binding self mb);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> check_ident ctx e p
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args) ->
            check_apply ctx e fn p args
          | Texp_match (scrutinee, cases, _) ->
            check_cases ctx scrutinee.exp_type cases
          | Texp_function { cases = c :: _ as cases; _ } ->
            check_cases ctx c.c_lhs.pat_type cases
          | Texp_letmodule (id, _, _, me, _) -> alias ctx id me
          | _ -> ());
          super.expr self e);
    }
  in
  it.structure it u.Cmt_load.u_structure;
  List.rev ctx.found

let findings units = List.concat_map check_unit units
