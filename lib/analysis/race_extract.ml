(* Typedtree extraction for clove-check.

   One pass over every compilation unit's .cmt builds, per function:

   - its direct mutation sites, each classified by the *root* of the
     mutated expression (module-level value / captured variable /
     parameter / local) and by protection (Atomic.*, mutex discipline,
     Domain.DLS);
   - its call sites, with every argument's root recorded alongside its
     label, so the report can re-root a callee's *specific* parameter
     through the *specific* argument bound to it;
   - whether it is a domain-parallel entry point's task (a root).

   Classification leans on two typedtree properties the parsetree does
   not have: paths are resolved (a [Hashtbl.replace] reached through an
   alias or an [open] is still recognized), and idents carry stamps, so
   a module-level table is distinguished from a shadowing local even
   when they share a name.

   Closure literals are inlined into the function that creates them:
   a closure handed to [Scheduler.schedule] or [Array.iter] runs in the
   creating task's domain, so its effects and calls belong to the
   creator's footprint.  The exception is a closure passed directly to
   a parallel entry point ([Domain_pool.run]/[map], [Domain.spawn]):
   that closure becomes its own node and a root, and everything it
   captures from the enclosing scope is shared across domains.

   Known holes, documented in DESIGN.md §11: calls through stored
   closures or function-typed record fields are not edges (the closure
   body was already attributed to its creator, which keeps the state
   reachable), rebinding state through [match] patterns can launder a
   shared root into a local, and functor applications are walked but
   their parameters are treated as opaque. *)

open Race_lattice

type site = { s_file : string; s_line : int }

let compare_site a b =
  match String.compare a.s_file b.s_file with
  | 0 -> Int.compare a.s_line b.s_line
  | c -> c

(* Allocation sites, recorded during the same walk so each site is
   attributed to the call-graph node whose body performs it (a
   line-range reattribution after the fact would misfile closures).
   the allocation analysis consumes these; the race analysis ignores
   them. *)
type alloc_kind =
  | K_closure
  | K_partial
  | K_tuple
  | K_record
  | K_variant
  | K_option
  | K_cons
  | K_float
  | K_array
  | K_string
  | K_format
  | K_ref

let alloc_kind_slug = function
  | K_closure -> "closure"
  | K_partial -> "partial-app"
  | K_tuple -> "tuple"
  | K_record -> "record"
  | K_variant -> "variant"
  | K_option -> "option"
  | K_cons -> "cons"
  | K_float -> "boxed-float"
  | K_array -> "array"
  | K_string -> "string"
  | K_format -> "format"
  | K_ref -> "ref"

type alloc_site = { al_kind : alloc_kind; al_desc : string; al_site : site }

type effect_site = {
  ef_target : arg_class;
  ef_prim : string;
  ef_prot : protection;
  ef_site : site;
}

type callee_ref =
  | C_stamp of string  (** same-unit ident, keyed by [Ident.unique_name] *)
  | C_name of string * string  (** (short module, value) *)
  | C_node of string  (** already-resolved node id (spawned closures) *)

type call_site = {
  cs_callee : callee_ref;
  cs_args : (Asttypes.arg_label * arg_class) list;
  cs_site : site;
}

type node = {
  n_id : string;
  n_site : site;
  n_is_init : bool;
  mutable n_effects : effect_site list;
  mutable n_calls : call_site list;
  mutable n_takes_lock : bool;
  mutable n_allocs : alloc_site list;  (** reverse source order *)
  mutable n_param_order : (Asttypes.arg_label * string list) list;
      (** outer [fun]-chain parameters in application order; each entry
          is the label plus the unique names its pattern binds *)
  n_params : (string, unit) Hashtbl.t;
      (** every parameter bound anywhere in this node (inlined closures
          included), by unique name *)
  n_locals : (string, unit) Hashtbl.t;  (** likewise for let-bound locals *)
}

type program = {
  p_nodes : (string, node) Hashtbl.t;
  mutable p_roots : (callee_ref option * string option * site) list;
      (** (unresolved task ref, resolved node id, spawn site) *)
  mutable p_dispatch : (callee_ref option * string option * site) list;
      (** likewise for scheduler dispatch-kind handlers *)
  mutable p_files : string list;
}

(* --------------------------- path helpers ------------------------- *)

let rec parts_of_path p =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (q, s) -> parts_of_path q @ [ s ]
  | Path.Papply (q, _) -> parts_of_path q
  | _ -> []

(* Last (module, value) pair of a resolved path, with the module
   component stripped of its dune wrapping prefix so that
   [Engine__Int_table.set], [Engine.Int_table.set] and a same-library
   [Int_table.set] all normalize to [("Int_table", "set")]. *)
let suffix2 p =
  match List.rev (parts_of_path p) with
  | v :: m :: _ -> Some (Cmt_load.short_of_modname m, v)
  | _ -> None

let line_of (e : Typedtree.expression) =
  e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum

(* ------------------------- effect tables -------------------------- *)

(* (module, (function, target)) -> printable primitive; [target] is the
   0-based index of the *mutated* value among the positional arguments —
   [Array.sort cmp a] mutates arg 1, [Array.blit src sp dst ...] arg 2 *)
let unprotected_mutators =
  [
    ( "Hashtbl",
      [ ("add", 0); ("replace", 0); ("remove", 0); ("reset", 0); ("clear", 0);
        ("filter_map_inplace", 1) ] );
    ("Int_table", [ ("set", 0); ("remove", 0); ("clear", 0) ]);
    ("Ring", [ ("push", 0); ("pop", 0); ("set", 0); ("truncate", 0) ]);
    ( "Queue",
      [ ("add", 0); ("push", 0); ("pop", 0); ("take", 0); ("take_opt", 0);
        ("clear", 0); ("transfer", 0) ] );
    ("Stack", [ ("push", 0); ("pop", 0); ("pop_opt", 0); ("clear", 0) ]);
    ( "Array",
      [ ("set", 0); ("unsafe_set", 0); ("fill", 0); ("blit", 2); ("sort", 1);
        ("fast_sort", 1); ("stable_sort", 1) ] );
    ( "Bytes",
      [ ("set", 0); ("unsafe_set", 0); ("fill", 0); ("blit", 2);
        ("blit_string", 2) ] );
    ("Buffer", [ ("clear", 0); ("reset", 0); ("truncate", 0) ]);
    ("Stdlib", [ (":=", 0); ("incr", 0); ("decr", 0) ]);
    (* repo-local mutable structures, plain records of arrays that every
       entry point below rewrites in place: Timer_wheel, the scheduler's
       event store, and Event_queue, a standalone heap *)
    ("Event_queue", [ ("add", 0); ("add_at_ns", 0); ("pop", 0) ]);
    ("Timer_wheel", [ ("add", 0); ("load", 0); ("pop", 0) ]);
  ]

let atomic_mutators = [ "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]

let classify_mutator (m, v) =
  match m with
  | "Atomic" when List.mem v atomic_mutators -> Some ("Atomic." ^ v, P_atomic, 0)
  | "DLS" when v = "set" -> Some ("Domain.DLS.set", P_dls, 0)
  | "Buffer" when String.length v >= 4 && String.sub v 0 4 = "add_" ->
    Some ("Buffer." ^ v, Unprotected, 0)
  | _ -> (
    match List.assoc_opt m unprotected_mutators with
    | Some vs -> (
      match List.assoc_opt v vs with
      | Some idx -> Some ((if m = "Stdlib" then v else m ^ "." ^ v), Unprotected, idx)
      | None -> None)
    | None -> None)

let lock_takers = [ ("Mutex", "lock"); ("Mutex", "try_lock"); ("Mutex", "protect") ]

(* (module, function) -> 0-based index of the task argument among the
   positional (unlabelled) arguments *)
let parallel_entries =
  [
    (("Domain_pool", "run"), 0);
    (("Domain_pool", "map"), 1);
    (("Domain", "spawn"), 0);
    (("Thread", "create"), 0);
  ]

(* (module, function) -> 0-based index of the handler argument among
   the positional arguments.  A closure registered as a scheduler
   dispatch kind or a deadline timer's handler becomes its own node so
   the hot-region analysis can root there, while a call edge from the
   registering function is kept so the race fixpoint still re-roots
   whatever the closure captured from the creator's scope. *)
let dispatch_entries =
  [ (("Scheduler", "register_kind"), 1); (("Scheduler", "timer"), 1) ]

(* ----------------------------- context ---------------------------- *)

type ctx = {
  file : string;
  globals : (string, string) Hashtbl.t;  (* unique_name -> qualified name *)
  stamp_nodes : (string, string) Hashtbl.t;  (* unique_name -> node id *)
  prog : program;
  mutable cur : node;
  mutable params : (string, unit) Hashtbl.t;
  mutable locals : (string, unit) Hashtbl.t;
  mutable chain : Typedtree.expression list;
      (* the current node's own outer [fun]-chain expressions, by
         physical identity: currying a function is not a per-call
         closure allocation of that function *)
}

let fresh_node prog ~id ~site ~is_init =
  let rec pick id' n =
    if Hashtbl.mem prog.p_nodes id' then
      pick (Printf.sprintf "%s@%d+%d" id site.s_line n) (n + 1)
    else id'
  in
  let id = pick id 0 in
  let node =
    {
      n_id = id;
      n_site = site;
      n_is_init = is_init;
      n_effects = [];
      n_calls = [];
      n_takes_lock = false;
      n_allocs = [];
      n_param_order = [];
      n_params = Hashtbl.create 16;
      n_locals = Hashtbl.create 16;
    }
  in
  Hashtbl.replace prog.p_nodes id node;
  node

let site_of ctx (e : Typedtree.expression) = { s_file = ctx.file; s_line = line_of e }

(* every ident bound by a pattern, by unique name *)
let pat_idents : type k. k Typedtree.general_pattern -> Ident.t list =
 fun pat ->
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type kk) self (p : kk Typedtree.general_pattern) ->
          (match p.Typedtree.pat_desc with
          | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
          | Typedtree.Tpat_alias (_, id, _) -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it pat;
  !acc

let add_idents tbl ids =
  List.iter (fun id -> Hashtbl.replace tbl (Ident.unique_name id) ()) ids

(* ------------------------- root classification -------------------- *)

let classify_path ctx p =
  match p with
  | Path.Pident id ->
    let key = Ident.unique_name id in
    if Hashtbl.mem ctx.locals key then A_local
    else if Hashtbl.mem ctx.params key then A_param key
    else (
      match Hashtbl.find_opt ctx.globals key with
      | Some qualified -> A_global qualified
      | None -> A_captured key)
  | Path.Pdot _ -> (
    match suffix2 p with
    | Some (m, v) -> A_global (m ^ "." ^ v)
    | None -> A_local)
  | _ -> A_local

let rec root_of ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> classify_path ctx p
  | Typedtree.Texp_field (e', _, _) -> root_of ctx e'
  | Typedtree.Texp_apply (_, args) -> (
    (* accessor heuristic: the root of [Scenario.sched scn] is [scn];
       an application with no positional argument yields a fresh value *)
    match
      List.find_map
        (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
        args
    with
    | Some a -> root_of ctx a
    | None -> A_local)
  | Typedtree.Texp_let (_, _, body) | Typedtree.Texp_sequence (_, body) ->
    root_of ctx body
  | Typedtree.Texp_ifthenelse (_, t, _) -> root_of ctx t
  | _ -> A_local

(* ------------------------------ walk ------------------------------ *)

let record_effect ctx ~target ~prim ~prot ~site =
  let prot =
    if prot = Unprotected && ctx.cur.n_takes_lock then P_lock else prot
  in
  ctx.cur.n_effects <-
    { ef_target = target; ef_prim = prim; ef_prot = prot; ef_site = site }
    :: ctx.cur.n_effects

let record_call ctx ~callee ~args ~site =
  ctx.cur.n_calls <-
    {
      cs_callee = callee;
      cs_args =
        List.filter_map
          (function
            | lbl, Some a -> Some (lbl, root_of ctx a)
            | _, None -> None)
          args;
      cs_site = site;
    }
    :: ctx.cur.n_calls

let ref_of_path p =
  match p with
  | Path.Pident id -> Some (C_stamp (Ident.unique_name id))
  | Path.Pdot _ -> (
    match suffix2 p with Some (m, v) -> Some (C_name (m, v)) | None -> None)
  | _ -> None

(* ---------------------- allocation classification ----------------- *)

let rec type_head ty =
  match Types.get_desc ty with
  | Types.Tpoly (ty', _) -> type_head ty'
  | d -> d

let is_arrow_ty ty = match type_head ty with Types.Tarrow _ -> true | _ -> false

let path_is ty p =
  match type_head ty with
  | Types.Tconstr (q, _, _) -> Path.same q p
  | _ -> false

let is_float_ty ty = path_is ty Predef.path_float

let format_fns =
  [
    ("Printf", "sprintf"); ("Printf", "printf"); ("Printf", "eprintf");
    ("Printf", "fprintf"); ("Printf", "bprintf"); ("Printf", "ksprintf");
    ("Format", "sprintf"); ("Format", "asprintf"); ("Format", "printf");
    ("Format", "eprintf"); ("Format", "fprintf");
  ]

let string_builders =
  [
    ("Stdlib", "^"); ("Stdlib", "string_of_int"); ("Stdlib", "string_of_float");
    ("Stdlib", "string_of_bool"); ("String", "concat"); ("String", "make");
    ("String", "init"); ("String", "sub"); ("String", "map"); ("String", "cat");
    ("Bytes", "create"); ("Bytes", "make"); ("Bytes", "sub"); ("Bytes", "copy");
    ("Bytes", "extend"); ("Bytes", "cat"); ("Bytes", "to_string");
    ("Bytes", "of_string"); ("Buffer", "contents");
  ]

(* calls that allocate their result by contract, keyed like the mutator
   table; the open-ended List/Array producers cover what lib/ uses *)
let alloc_calls =
  [
    (("Stdlib", "ref"), (K_ref, "ref cell"));
    (("Atomic", "make"), (K_ref, "Atomic.make"));
    (("Hashtbl", "create"), (K_record, "Hashtbl.create"));
    (("Hashtbl", "copy"), (K_record, "Hashtbl.copy"));
    (("Queue", "create"), (K_record, "Queue.create"));
    (("Buffer", "create"), (K_record, "Buffer.create"));
    (("Array", "make"), (K_array, "Array.make"));
    (("Array", "init"), (K_array, "Array.init"));
    (("Array", "copy"), (K_array, "Array.copy"));
    (("Array", "append"), (K_array, "Array.append"));
    (("Array", "concat"), (K_array, "Array.concat"));
    (("Array", "sub"), (K_array, "Array.sub"));
    (("Array", "of_list"), (K_array, "Array.of_list"));
    (("Array", "map"), (K_array, "Array.map"));
    (("Array", "mapi"), (K_array, "Array.mapi"));
    (("Array", "make_matrix"), (K_array, "Array.make_matrix"));
    (("Array", "to_list"), (K_cons, "Array.to_list"));
    (("List", "map"), (K_cons, "List.map"));
    (("List", "mapi"), (K_cons, "List.mapi"));
    (("List", "init"), (K_cons, "List.init"));
    (("List", "append"), (K_cons, "List.append"));
    (("List", "concat"), (K_cons, "List.concat"));
    (("List", "concat_map"), (K_cons, "List.concat_map"));
    (("List", "rev"), (K_cons, "List.rev"));
    (("List", "rev_append"), (K_cons, "List.rev_append"));
    (("List", "filter"), (K_cons, "List.filter"));
    (("List", "filter_map"), (K_cons, "List.filter_map"));
    (("List", "sort"), (K_cons, "List.sort"));
    (("List", "stable_sort"), (K_cons, "List.stable_sort"));
    (("List", "sort_uniq"), (K_cons, "List.sort_uniq"));
    (("Option", "map"), (K_option, "Option.map"));
    (("Option", "some"), (K_option, "Option.some"));
  ]

(* a constant constructor ([[]], [Ce]): ocamlopt compiles [=]/[<>]
   against one (not [<] or [compare]) to an integer compare *)
let is_constant_constructor (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_tag = Cstr_constant _; _ }, []) -> true
  | _ -> false

(* a variant block whose arguments are all constants ([Some 64], and
   the typechecker's [Some] around [f ~capacity:64]) is static data
   ocamlopt emits once: building it allocates nothing.  A variable
   argument ([Some x], [f ~capacity:c]) is a heap block per evaluation. *)
let rec is_static (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, { cstr_tag = Cstr_block _; _ }, args) -> List.for_all is_static args
  | _ -> is_constant_constructor e

(* classify [e] as an allocation site of the current node, if it is
   one.  Closure literals that are the node's own outer [fun]-chain
   (tracked by physical identity in [ctx.chain]) are the function
   itself, not a per-call allocation.  Float results are an
   over-approximation: a float-returning call boxes unless the compiler
   unboxes locally; that is exactly the hazard the hot path is supposed
   to avoid, so the noise is the signal. *)
let record_alloc ctx (e : Typedtree.expression) =
  let open Typedtree in
  if ctx.cur.n_id <> "<pre>" then begin
    let add kind desc =
      ctx.cur.n_allocs <-
        { al_kind = kind; al_desc = desc; al_site = site_of ctx e }
        :: ctx.cur.n_allocs
    in
    match e.exp_desc with
    | Texp_function _ ->
      if not (List.memq e ctx.chain) then add K_closure "closure literal"
    | Texp_tuple _ -> add K_tuple "tuple"
    | Texp_record { fields; _ } ->
      let tyname =
        match type_head e.exp_type with
        | Types.Tconstr (p, _, _) -> Path.last p
        | _ -> "?"
      in
      add K_record (Printf.sprintf "record %s (%d fields)" tyname (Array.length fields))
    | Texp_construct (_, cstr, args) when args <> [] && not (is_static e) -> (
      match cstr.Types.cstr_name with
      | "Some" -> add K_option "Some"
      | "::" -> add K_cons "list cons"
      | name -> add K_variant ("constructor " ^ name))
    | Texp_array (_ :: _) -> add K_array "array literal"
    | Texp_apply (fn, _) -> (
      let callee =
        match fn.exp_desc with Texp_ident (p, _, _) -> suffix2 p | _ -> None
      in
      let callee_name =
        match callee with
        | Some ("Stdlib", v) -> v
        | Some (m, v) -> m ^ "." ^ v
        | None -> "<expr>"
      in
      match callee with
      | Some mv when List.mem mv format_fns ->
        add K_format ("format call " ^ callee_name)
      | Some mv when List.mem mv string_builders ->
        add K_string ("string build " ^ callee_name)
      | Some mv when List.mem_assoc mv alloc_calls ->
        let kind, desc = List.assoc mv alloc_calls in
        add kind desc
      | _ ->
        if is_arrow_ty e.exp_type then
          add K_partial ("partial application of " ^ callee_name)
        else if is_float_ty e.exp_type then
          match callee with
          | Some ("Stdlib", "!") -> ()
          | _ -> add K_float ("float result of " ^ callee_name))
    | _ -> ()
  end

let rec make_iterator ctx =
  let it = ref Tast_iterator.default_iterator in
  let expr _self e = handle ctx !it e in
  it := { Tast_iterator.default_iterator with expr };
  !it

and visit ctx e =
  let it = make_iterator ctx in
  it.Tast_iterator.expr it e

and handle ctx it e =
  let open Typedtree in
  let sub e' = it.Tast_iterator.expr it e' in
  record_alloc ctx e;
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.iter
      (fun c ->
        add_idents ctx.params (pat_idents c.c_lhs);
        Option.iter sub c.c_guard;
        sub c.c_rhs)
      cases
  | Texp_let (_, vbs, body) ->
    List.iter (fun vb -> handle_binding ctx it vb) vbs;
    sub body
  | Texp_match (scrut, cases, _) ->
    sub scrut;
    List.iter
      (fun c ->
        add_idents ctx.locals (pat_idents c.c_lhs);
        Option.iter sub c.c_guard;
        sub c.c_rhs)
      cases
  | Texp_try (body, cases) ->
    sub body;
    List.iter
      (fun c ->
        add_idents ctx.locals (pat_idents c.c_lhs);
        Option.iter sub c.c_guard;
        sub c.c_rhs)
      cases
  | Texp_for (id, _, lo, hi, _, body) ->
    Hashtbl.replace ctx.locals (Ident.unique_name id) ();
    sub lo;
    sub hi;
    sub body
  | Texp_setfield (obj, _, lbl, v) ->
    record_effect ctx ~target:(root_of ctx obj)
      ~prim:(lbl.Types.lbl_name ^ " <-")
      ~prot:Unprotected ~site:(site_of ctx e);
    sub obj;
    sub v
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
    handle_apply ctx it e p args
  | _ -> Tast_iterator.default_iterator.expr it e

and handle_binding ctx it vb =
  let open Typedtree in
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | Tpat_var (id, _), Texp_function _ ->
    let site = { s_file = ctx.file; s_line = line_of vb.vb_expr } in
    (* the nested function is its own node, but its closure is still
       built each time the enclosing function runs *)
    ctx.cur.n_allocs <-
      { al_kind = K_closure;
        al_desc = "local fun " ^ Ident.name id;
        al_site = site }
      :: ctx.cur.n_allocs;
    let node =
      spawn_node ctx ~id:(ctx.cur.n_id ^ "." ^ Ident.name id) ~site vb.vb_expr
    in
    Hashtbl.replace ctx.stamp_nodes (Ident.unique_name id) node.n_id;
    (* the name is an ordinary value afterwards; passing it around
       should not look like passing mutable state *)
    Hashtbl.replace ctx.locals (Ident.unique_name id) ()
  | _ ->
    add_idents ctx.locals (pat_idents vb.vb_pat);
    it.Tast_iterator.expr it vb.vb_expr

(* record the outer [fun]-chain of [e] in application order: stops at
   the first multi-case [function] (whose scrutinee is the last
   parameter) or non-function body.  The chain expressions are also
   remembered (by physical identity) so [record_alloc] does not count
   the node's own currying as closure allocations.  A defaulted
   optional parameter [?(x = d)] is typed as the parameter [*opt*]
   whose body is [let x = match *opt* with ... in fun ...]: the chain
   goes on through that generated binding. *)
and peel_param_order ctx node (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { arg_label; cases; _ } -> (
    ctx.chain <- e :: ctx.chain;
    let unames =
      List.concat_map
        (fun c -> List.map Ident.unique_name (pat_idents c.Typedtree.c_lhs))
        cases
    in
    node.n_param_order <- node.n_param_order @ [ (arg_label, unames) ];
    match cases with
    | [ c ] when c.Typedtree.c_guard = None -> (
      match (c.Typedtree.c_lhs.pat_desc, c.Typedtree.c_rhs.exp_desc) with
      | Typedtree.Tpat_var (id, _), Typedtree.Texp_let (Asttypes.Nonrecursive, [ _ ], body)
        when String.equal (Ident.name id) "*opt*" ->
        peel_param_order ctx node body
      | _ -> peel_param_order ctx node c.Typedtree.c_rhs)
    | _ -> ())
  | _ -> ()

(* walk [fn_expr] as its own node; restores the enclosing context *)
and spawn_node ctx ~id ~site fn_expr =
  let saved_cur = ctx.cur
  and saved_params = ctx.params
  and saved_locals = ctx.locals
  and saved_chain = ctx.chain in
  let node = fresh_node ctx.prog ~id ~site ~is_init:false in
  ctx.cur <- node;
  ctx.params <- node.n_params;
  ctx.locals <- node.n_locals;
  ctx.chain <- [];
  peel_param_order ctx node fn_expr;
  visit ctx fn_expr;
  ctx.cur <- saved_cur;
  ctx.params <- saved_params;
  ctx.locals <- saved_locals;
  ctx.chain <- saved_chain;
  node

and handle_apply ctx it e p args =
  let open Typedtree in
  let visit_args skip =
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some a when not (List.memq a skip) -> it.Tast_iterator.expr it a
        | _ -> ())
      args
  in
  let plain_call () =
    (match ref_of_path p with
    | Some callee -> record_call ctx ~callee ~args ~site:(site_of ctx e)
    | None -> ());
    visit_args []
  in
  match suffix2 p with
  | None ->
    (* bare ident: a same-unit or local function *)
    plain_call ()
  | Some (m, v) -> (
    match classify_mutator (m, v) with
    | Some (prim, prot, target_idx) ->
      let positionals =
        List.filter_map
          (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
          args
      in
      (match List.nth_opt positionals target_idx with
      | Some target ->
        record_effect ctx ~target:(root_of ctx target) ~prim ~prot
          ~site:(site_of ctx e)
      | None -> ());
      (* a mutator the analyzed code defines ([Event_queue.add_at_ns],
         [Ring.push], ...) is also a call: its body's effects and
         allocations belong to the caller's footprint *)
      plain_call ()
    | None ->
      if List.mem (m, v) lock_takers then begin
        ctx.cur.n_takes_lock <- true;
        (* the discipline is per-function, not flow-sensitive: seeing a
           lock anywhere re-classifies earlier walk-order mutations too *)
        ctx.cur.n_effects <-
          List.map
            (fun ef ->
              if ef.ef_prot = Unprotected then { ef with ef_prot = P_lock } else ef)
            ctx.cur.n_effects;
        visit_args []
      end
      else (
        match List.assoc_opt (m, v) parallel_entries with
        | None ->
          if List.mem_assoc (m, v) dispatch_entries then
            handle_dispatch ctx it e m v args
          else plain_call ()
        | Some task_idx -> (
          let positionals =
            List.filter_map
              (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
              args
          in
          match List.nth_opt positionals task_idx with
          | None -> visit_args []
          | Some task -> (
            let spawn_site = site_of ctx e in
            match task.exp_desc with
            | Texp_ident (tp, _, _) ->
              ctx.prog.p_roots <- (ref_of_path tp, None, spawn_site) :: ctx.prog.p_roots;
              visit_args []
            | Texp_apply ({ exp_desc = Texp_ident (tp, _, _); _ }, _) ->
              (* partially applied task, e.g. [run (run_scheme opts) xs] *)
              ctx.prog.p_roots <- (ref_of_path tp, None, spawn_site) :: ctx.prog.p_roots;
              visit_args []
            | Texp_function _ ->
              let node =
                spawn_node ctx
                  ~id:(Printf.sprintf "%s.<task@%d>" ctx.cur.n_id spawn_site.s_line)
                  ~site:spawn_site task
              in
              ctx.prog.p_roots <- (None, Some node.n_id, spawn_site) :: ctx.prog.p_roots;
              (* the task closure itself is built in the spawning
                 function, once per spawn *)
              ctx.cur.n_allocs <-
                { al_kind = K_closure;
                  al_desc = "parallel task closure";
                  al_site = spawn_site }
                :: ctx.cur.n_allocs;
              visit_args [ task ]
            | _ -> visit_args []))))

and handle_dispatch ctx it e m v args =
  let open Typedtree in
  let visit_args skip =
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some a when not (List.memq a skip) -> it.Tast_iterator.expr it a
        | _ -> ())
      args
  in
  let positionals =
    List.filter_map
      (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let tasks =
    match List.nth_opt positionals (List.assoc (m, v) dispatch_entries) with
    | Some a -> [ a ]
    | None -> []
  in
  let spawn_site = site_of ctx e in
  let skip =
    List.filter_map
      (fun task ->
        match task.exp_desc with
        | Texp_ident (tp, _, _) ->
          (* a named handler: the function itself is the dispatch root *)
          ctx.prog.p_dispatch <-
            (ref_of_path tp, None, spawn_site) :: ctx.prog.p_dispatch;
          None
        | Texp_apply ({ exp_desc = Texp_ident (tp, _, _); _ }, _) ->
          (* partially applied handler, e.g. [register_kind s (on_event t)] *)
          ctx.prog.p_dispatch <-
            (ref_of_path tp, None, spawn_site) :: ctx.prog.p_dispatch;
          None
        | Texp_function _ ->
          let site = site_of ctx task in
          let node =
            spawn_node ctx
              ~id:(Printf.sprintf "%s.<kind@%d>" ctx.cur.n_id site.s_line)
              ~site task
          in
          ctx.prog.p_dispatch <-
            (None, Some node.n_id, site) :: ctx.prog.p_dispatch;
          (* unlike a parallel task, the handler runs on the registering
             task's own domain: keep a call edge so the race fixpoint
             re-roots its captures through the creator, and charge the
             creator for building the closure (once per registration) *)
          ctx.cur.n_calls <-
            { cs_callee = C_node node.n_id; cs_args = []; cs_site = site }
            :: ctx.cur.n_calls;
          ctx.cur.n_allocs <-
            { al_kind = K_closure;
              al_desc = "dispatch handler closure";
              al_site = site }
            :: ctx.cur.n_allocs;
          Some task
        | _ -> None)
      tasks
  in
  visit_args skip

(* ------------------------- structure walk ------------------------- *)

let rec collect_globals ctx ~prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun id ->
                Hashtbl.replace ctx.globals (Ident.unique_name id)
                  (prefix ^ "." ^ Ident.name id))
              (pat_idents vb.Typedtree.vb_pat))
          vbs
      | Typedtree.Tstr_module mb -> collect_globals_module ctx ~prefix mb
      | Typedtree.Tstr_recmodule mbs ->
        List.iter (collect_globals_module ctx ~prefix) mbs
      | _ -> ())
    str.str_items

and collect_globals_module ctx ~prefix (mb : Typedtree.module_binding) =
  let name = match mb.mb_name.Location.txt with Some n -> n | None -> "_" in
  collect_globals_mod_expr ctx ~prefix:(prefix ^ "." ^ name) mb.mb_expr

and collect_globals_mod_expr ctx ~prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str -> collect_globals ctx ~prefix str
  | Typedtree.Tmod_functor (_, body) -> collect_globals_mod_expr ctx ~prefix body
  | Typedtree.Tmod_constraint (inner, _, _, _) ->
    collect_globals_mod_expr ctx ~prefix inner
  | _ -> ()

let init_node ctx prefix =
  let id = prefix ^ ".<init>" in
  match Hashtbl.find_opt ctx.prog.p_nodes id with
  | Some n -> n
  | None -> fresh_node ctx.prog ~id ~site:{ s_file = ctx.file; s_line = 1 } ~is_init:true

let under_node ctx node f =
  let saved_cur = ctx.cur
  and saved_params = ctx.params
  and saved_locals = ctx.locals
  and saved_chain = ctx.chain in
  ctx.cur <- node;
  ctx.params <- node.n_params;
  ctx.locals <- node.n_locals;
  ctx.chain <- [];
  f ();
  ctx.cur <- saved_cur;
  ctx.params <- saved_params;
  ctx.locals <- saved_locals;
  ctx.chain <- saved_chain

let rec walk_structure ctx ~prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (vb.Typedtree.vb_pat.pat_desc, vb.Typedtree.vb_expr.exp_desc) with
            | Typedtree.Tpat_var (id, _), Typedtree.Texp_function _ ->
              let node =
                spawn_node ctx
                  ~id:(prefix ^ "." ^ Ident.name id)
                  ~site:{ s_file = ctx.file; s_line = line_of vb.Typedtree.vb_expr }
                  vb.Typedtree.vb_expr
              in
              Hashtbl.replace ctx.stamp_nodes (Ident.unique_name id) node.n_id
            | _ ->
              under_node ctx (init_node ctx prefix) (fun () ->
                  visit ctx vb.Typedtree.vb_expr))
          vbs
      | Typedtree.Tstr_eval (e, _) ->
        under_node ctx (init_node ctx prefix) (fun () -> visit ctx e)
      | Typedtree.Tstr_module mb -> walk_module ctx ~prefix mb
      | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module ctx ~prefix) mbs
      | _ -> ())
    str.str_items

and walk_module ctx ~prefix (mb : Typedtree.module_binding) =
  let name = match mb.mb_name.Location.txt with Some n -> n | None -> "_" in
  walk_mod_expr ctx ~prefix:(prefix ^ "." ^ name) mb.mb_expr

and walk_mod_expr ctx ~prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str -> walk_structure ctx ~prefix str
  | Typedtree.Tmod_functor (_, body) -> walk_mod_expr ctx ~prefix body
  | Typedtree.Tmod_constraint (inner, _, _, _) -> walk_mod_expr ctx ~prefix inner
  | Typedtree.Tmod_apply (f, arg, _) ->
    walk_mod_expr ctx ~prefix f;
    walk_mod_expr ctx ~prefix arg
  | _ -> ()

(* ------------------------------ linking --------------------------- *)

type linked_call = {
  lc_callee : string;
  lc_args : (Asttypes.arg_label * arg_class) list;
  lc_site : site;
}

type linked = {
  l_nodes : node list;  (** sorted by id *)
  l_calls : (string, linked_call list) Hashtbl.t;  (** node id -> resolved calls *)
  l_roots : (string * site) list;  (** (node id, spawn site), sorted *)
  l_dispatch : (string * site) list;
      (** (dispatch-handler node id, registration site), sorted *)
  l_files : string list;
}

let extract_unit prog (u : Cmt_load.unit_info) =
  let pre =
    {
      n_id = "<pre>";
      n_site = { s_file = u.Cmt_load.u_source; s_line = 0 };
      n_is_init = true;
      n_effects = [];
      n_calls = [];
      n_takes_lock = false;
      n_allocs = [];
      n_param_order = [];
      n_params = Hashtbl.create 1;
      n_locals = Hashtbl.create 1;
    }
  in
  let ctx =
    {
      file = u.Cmt_load.u_source;
      globals = Hashtbl.create 64;
      stamp_nodes = Hashtbl.create 64;
      prog;
      cur = pre;
      params = pre.n_params;
      locals = pre.n_locals;
      chain = [];
    }
  in
  collect_globals ctx ~prefix:u.Cmt_load.u_short u.Cmt_load.u_structure;
  walk_structure ctx ~prefix:u.Cmt_load.u_short u.Cmt_load.u_structure;
  prog.p_files <- ctx.file :: prog.p_files;
  ctx.stamp_nodes

let analyze units =
  let prog =
    { p_nodes = Hashtbl.create 512; p_roots = []; p_dispatch = []; p_files = [] }
  in
  let per_unit = List.map (fun u -> (u, extract_unit prog u)) units in
  let nodes =
    Hashtbl.fold (fun _ n acc -> n :: acc) prog.p_nodes []
    |> List.sort (fun a b -> String.compare a.n_id b.n_id)
  in
  (* cross-module resolution: toplevel node ["Mod.fn"] under (Mod, fn);
     iterate the sorted list so resolution never depends on table order *)
  let by_name = Hashtbl.create 512 in
  List.iter
    (fun n ->
      match String.split_on_char '.' n.n_id with
      | [ m; v ] -> Hashtbl.replace by_name (m, v) n.n_id
      | _ -> ())
    nodes;
  let resolve stamp_nodes = function
    | C_stamp key -> Hashtbl.find_opt stamp_nodes key
    | C_name (m, v) -> Hashtbl.find_opt by_name (m, v)
    | C_node id -> if Hashtbl.mem prog.p_nodes id then Some id else None
  in
  (* resolve each node's calls with its own unit's stamp table; calls
     through locals, parameters or stored closures resolve to nothing
     and are dropped (see the module comment) *)
  let calls = Hashtbl.create 512 in
  List.iter
    (fun ((u : Cmt_load.unit_info), stamp_nodes) ->
      List.iter
        (fun (node : node) ->
          if node.n_site.s_file = u.Cmt_load.u_source then
            Hashtbl.replace calls node.n_id
              (List.filter_map
                 (fun cs ->
                   match resolve stamp_nodes cs.cs_callee with
                   | Some callee ->
                     Some
                       { lc_callee = callee; lc_args = cs.cs_args; lc_site = cs.cs_site }
                   | None -> None)
                 (List.rev node.n_calls)))
        nodes)
    per_unit;
  let resolve_entries entries =
    List.filter_map
      (fun (r, direct, site) ->
        match direct with
        | Some id -> Some (id, site)
        | None -> (
          match r with
          | Some (C_name (m, v)) ->
            Option.map (fun id -> (id, site)) (Hashtbl.find_opt by_name (m, v))
          | Some (C_stamp key) ->
            (* same-unit task reference; unique names are per-unit
               counters, so probe every unit's table and take the first
               hit in unit order *)
            List.find_map
              (fun (_, stamps) ->
                Option.map (fun id -> (id, site)) (Hashtbl.find_opt stamps key))
              per_unit
          | Some (C_node id) ->
            if Hashtbl.mem prog.p_nodes id then Some (id, site) else None
          | None -> None))
      entries
    |> List.sort_uniq (fun (a, sa) (b, sb) ->
           match String.compare a b with 0 -> compare_site sa sb | c -> c)
  in
  (* Parallel entry points reached through stored closures the call
     resolver cannot see: the PDES shard worker is handed to
     [Domain_pool.map] as a record field ([Shard.run_to_barrier_task],
     partially applied once at coordinator construction and re-entered
     every barrier window on the pool's domains).  Resolved against the
     node table, so a rename degrades to "root absent" rather than a
     stale whitelist silently shrinking coverage. *)
  let named_roots = [ ("Shard", "run_to_barrier_task") ] in
  let named =
    List.filter_map
      (fun (m, v) ->
        match Hashtbl.find_opt by_name (m, v) with
        | None -> None
        | Some id ->
          List.find_opt (fun n -> n.n_id = id) nodes
          |> Option.map (fun n -> (id, n.n_site)))
      named_roots
  in
  {
    l_nodes = nodes;
    l_calls = calls;
    l_roots =
      List.sort_uniq
        (fun (a, sa) (b, sb) ->
          match String.compare a b with 0 -> compare_site sa sb | c -> c)
        (named @ resolve_entries prog.p_roots);
    l_dispatch = resolve_entries prog.p_dispatch;
    l_files = List.sort String.compare prog.p_files;
  }
