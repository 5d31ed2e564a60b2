(* Allocation extraction for clove-check: the hot region of the call graph and the
   cold-branch spans that gate allocation findings.

   The hot region is everything *reachable* in the whole-library call
   graph from the scheduler dispatch roots — the defunctionalized kind
   handlers registered with [Scheduler.register_kind] (collected per
   registration site by [Race_extract]) plus the named per-event entry
   points of the packet path (timer-wheel flush, link/switch/vswitch
   forwarding, TCP tx/rx).  A helper two calls away from [Tcp.on_ack]
   is hot whether or not its module ever appeared on a list.

   The BFS is deterministic: roots sorted by node id, FIFO order, call
   edges in source order, and each node's parent pointer fixed at
   discovery — so the witness chain for a given graph never varies
   between runs. *)

(* Per-event entry points whose bodies (and transitive callees) run
   once per packet/event in steady state.  Resolved against the actual
   node table, so renames degrade to "root absent" rather than a stale
   whitelist silently shrinking coverage; the report lists the
   roots it resolved. *)
let named_roots =
  [
    "Scheduler.run";
    "Scheduler.step";
    "Shard.drive";
    "Partition.exchange";
    "Link.inject";
    "Timer_wheel.advance";
    "Timer_wheel.advance_next";
    "Link.send";
    "Switch.forward";
    "Switch.receive";
    "Vswitch.rx";
    "Vswitch.tx";
    "Stack.deliver";
    "Tcp.on_ack";
    "Tcp.on_data";
    "Tcp.try_send";
    (* timer handlers reached through a handler table, not a call *)
    "Presto_rx.expire";
    "Vswitch.fb_expire";
  ]

type hot = {
  h_roots : (string * string) list;  (** (node id, origin), sorted by id *)
  h_member : (string, unit) Hashtbl.t;
  h_parent : (string, string * Race_extract.site) Hashtbl.t;
      (** discovered node -> (caller, call site); roots absent *)
}

let member hot id = Hashtbl.mem hot.h_member id

let site_str (s : Race_extract.site) =
  Printf.sprintf "%s:%d" s.Race_extract.s_file s.Race_extract.s_line

let hot_region (l : Race_extract.linked) =
  let node_ids : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (n : Race_extract.node) -> Hashtbl.replace node_ids n.Race_extract.n_id ())
    l.Race_extract.l_nodes;
  (* first origin wins when a handler is both registered and named *)
  let roots : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let add id origin =
    if Hashtbl.mem node_ids id && not (Hashtbl.mem roots id) then
      Hashtbl.replace roots id origin
  in
  List.iter
    (fun (id, site) ->
      add id (Printf.sprintf "dispatch handler registered at %s" (site_str site)))
    l.Race_extract.l_dispatch;
  List.iter (fun id -> add id "named dispatch root") named_roots;
  let sorted_roots =
    Hashtbl.fold (fun id origin acc -> (id, origin) :: acc) roots []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let h_member = Hashtbl.create 256 in
  let h_parent = Hashtbl.create 256 in
  let q = Queue.create () in
  List.iter
    (fun (id, _) ->
      Hashtbl.replace h_member id ();
      Queue.add id q)
    sorted_roots;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    List.iter
      (fun (c : Race_extract.linked_call) ->
        let callee = c.Race_extract.lc_callee in
        if Hashtbl.mem node_ids callee && not (Hashtbl.mem h_member callee)
        then begin
          Hashtbl.replace h_member callee ();
          Hashtbl.replace h_parent callee (id, c.Race_extract.lc_site);
          Queue.add callee q
        end)
      (match Hashtbl.find_opt l.Race_extract.l_calls id with
      | Some cs -> cs
      | None -> [])
  done;
  { h_roots = sorted_roots; h_member; h_parent }

(* chain root-first: [(root, None); (n1, Some s1); ...; (id, Some sk)]
   where [si] is the call site in the previous element *)
let witness_to hot id =
  let rec up id acc =
    match Hashtbl.find_opt hot.h_parent id with
    | None -> (id, None) :: acc
    | Some (caller, site) -> up caller ((id, Some site) :: acc)
  in
  if member hot id then Some (up id []) else None

(* Pure reachability on an integer graph, for the qcheck monotonicity
   property: hot-region membership only ever grows when edges are
   added.  Mirrors the BFS above minus the node table. *)
let reachable ~n ~roots ~edges =
  let seen = Array.make (max n 1) false in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if r >= 0 && r < n && not seen.(r) then begin
        seen.(r) <- true;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (a, b) ->
        if a = u && b >= 0 && b < n && not seen.(b) then begin
          seen.(b) <- true;
          Queue.add b q
        end)
      edges
  done;
  seen

(* --------------------------- cold branches ------------------------ *)

(* An allocation inside one of these spans is off the steady-state
   path: an audited run, violation reporting, or a branch that only
   builds an exception.  Reported under [alloc-cold] instead of
   counting against the budget. *)

type span = {
  sp_file : string;
  sp_start : int;
  sp_end : int;
  sp_reason : string;
}

let is_run_mode (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Race_extract.suffix2 p = Some ("Run_mode", "t")
  | _ -> false

let audit_gate (e : Typedtree.expression) =
  (* [Scheduler.audit s], or the [audit] field of a [Run_mode.t]: the
     [`Then] branch is the audited path, so it is cold *)
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _)
    when Race_extract.suffix2 p = Some ("Scheduler", "audit") ->
    Some (`Then, "audited-run branch (Scheduler.audit)")
  | Typedtree.Texp_field (_, _, { Types.lbl_name = "audit"; lbl_res; _ })
    when is_run_mode lbl_res ->
    Some (`Then, "audited-run branch (Run_mode.audit)")
  | _ -> None

let rec gate_of (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply
      ( { exp_desc = Typedtree.Texp_ident (op, _, _); _ },
        [ (Asttypes.Nolabel, Some inner) ] )
    when Race_extract.suffix2 op = Some ("Stdlib", "not") -> (
    match gate_of inner with
    | Some (`Else, r) -> Some (`Then, r)
    | Some (`Then, r) -> Some (`Else, r)
    | None -> None)
  | _ -> audit_gate e

let contains_audit_error ~unit (e : Typedtree.expression) =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e' ->
          (match e'.Typedtree.exp_desc with
          (* [Scheduler.record_violation], unqualified inside the scheduler *)
          | Typedtree.Texp_ident (Path.Pident id, _, _) ->
            if String.equal unit "Scheduler" && String.equal (Ident.name id) "record_violation"
            then found := true
          | Typedtree.Texp_ident (p, _, _) ->
            if Race_extract.suffix2 p = Some ("Scheduler", "record_violation") then found := true
          | _ -> ());
          if not !found then Tast_iterator.default_iterator.expr self e');
    }
  in
  it.Tast_iterator.expr it e;
  !found

let raising_calls = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* every evaluation of [e] ends in a raise: the branch exists to build
   and throw an exception, its allocations are not steady-state *)
let rec always_raises (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _)
    -> (
    match Race_extract.suffix2 p with
    | Some ("Stdlib", v) -> List.mem v raising_calls
    | _ -> false)
  | Typedtree.Texp_assert
      ( { exp_desc = Typedtree.Texp_construct (_, { cstr_name = "false"; _ }, _); _ },
        _ ) ->
    true
  | Typedtree.Texp_let (_, _, body) -> always_raises body
  | Typedtree.Texp_sequence (_, e2) -> always_raises e2
  | Typedtree.Texp_ifthenelse (_, t, Some f) ->
    always_raises t && always_raises f
  | _ -> false

let span_of file (e : Typedtree.expression) reason =
  {
    sp_file = file;
    sp_start = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum;
    sp_end = e.Typedtree.exp_loc.Location.loc_end.Lexing.pos_lnum;
    sp_reason = reason;
  }

let cold_spans units =
  let spans = ref [] in
  let scan (u : Cmt_load.unit_info) =
    let file = u.Cmt_load.u_source in
    let branch (e : Typedtree.expression) =
      if always_raises e then
        spans := span_of file e "always-raising branch" :: !spans
      else if contains_audit_error ~unit:u.Cmt_load.u_short e then
        spans := span_of file e "audited error path" :: !spans
    in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_ifthenelse (cond, then_, else_) -> (
              (match gate_of cond with
              | Some (`Then, reason) ->
                spans := span_of file then_ reason :: !spans
              | Some (`Else, reason) -> (
                match else_ with
                | Some b -> spans := span_of file b reason :: !spans
                | None -> ())
              | None -> ());
              branch then_;
              match else_ with Some b -> branch b | None -> ())
            | Typedtree.Texp_match (_, cases, _) ->
              List.iter (fun (c : _ Typedtree.case) -> branch c.c_rhs) cases
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.Tast_iterator.structure it u.Cmt_load.u_structure
  in
  List.iter scan units;
  !spans

let cold_reason spans file line =
  List.find_map
    (fun sp ->
      if sp.sp_file = file && line >= sp.sp_start && line <= sp.sp_end then
        Some sp.sp_reason
      else None)
    spans
