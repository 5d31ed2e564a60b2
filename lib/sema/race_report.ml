(* The race analysis of clove-check: witness-carrying footprint
   fixpoint and root analysis over the linked call graph.

   The fixpoint computes, per function, a *summary*: a map from
   mutation target (module-level value, captured variable, or a named
   parameter) to the worst footprint class reaching it plus one
   witness chain — the call sites, in order, from this function down
   to a concrete mutation site.  Propagation is per-target:

   - a callee's parameter effect is re-rooted through the *specific*
     argument bound to that parameter at the call (matched by label,
     or by position among the unlabelled arguments) — not through the
     worst argument overall, which would let a harmless module-level
     constant passed alongside a closure poison the chain;
   - a callee's captured-variable effect is resolved against the
     caller's own scope: a capture of the caller's local dies there
     (each task owns its frame), a capture of the caller's parameter
     becomes a parameter effect of the caller, and anything else stays
     captured.  Resolution only applies when caller and callee share a
     source file, since ident stamps are per-compilation-unit.

   Chains only ever shrink for a given class, so
   the iteration terminates and the chosen witness is deterministic:
   nodes are visited in sorted order, call sites in source order, and
   summaries iterated in sorted key order.

   Findings are produced at domain-parallel roots only: a target whose
   class at the root is Shared_mut or Captured_mut is mutated by
   concurrently running tasks.  Param_mut at a root is, by design, not
   a finding — a task mutating only the element it was handed is the
   intended sharding discipline. *)

open Race_lattice

type hop = { h_site : Race_extract.site; h_desc : string }

type t = {
  r_findings : Analysis.Findings.t list;
  r_roots : (string * Race_extract.site) list;
  r_mutations : int;
  r_protected : int;
}

(* --------------------------- summaries ---------------------------- *)

(* target key -> (class, witness chain); keys are prefixed so a global
   and a captured variable with the same name cannot collide *)
type summary = (string, cls * hop list) Hashtbl.t

let key_of_target = function
  | A_global g -> Some ("g:" ^ g, Shared_mut)
  | A_captured v -> Some ("c:" ^ v, Captured_mut)
  | A_param u -> Some ("p:" ^ u, Param_mut)
  | A_local -> None

(* [Ident.unique_name] is ["name_stamp"]; drop the stamp for display *)
let strip_stamp s =
  match String.rindex_opt s '_' with
  | Some i
    when i > 0
         && i < String.length s - 1
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub s (i + 1) (String.length s - i - 1)) ->
    String.sub s 0 i
  | _ -> s

let display_of_key key =
  match String.index_opt key ':' with
  | Some i -> (
    let rest = String.sub key (i + 1) (String.length key - i - 1) in
    match key.[0] with
    | 'g' -> rest
    | 'c' -> "capture " ^ strip_stamp rest
    | _ -> "a parameter")
  | None -> key

let update (t : summary) key cls hops =
  match Hashtbl.find_opt t key with
  | None ->
    Hashtbl.replace t key (cls, hops);
    true
  | Some (cls0, hops0) ->
    if rank cls > rank cls0 then begin
      Hashtbl.replace t key (cls, hops);
      true
    end
    else if rank cls = rank cls0 && List.length hops < List.length hops0 then begin
      (* same class, strictly shorter witness: keep the better chain;
         strict shrinking also guarantees termination *)
      Hashtbl.replace t key (cls, hops);
      true
    end
    else false

let sorted_entries (t : summary) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* the argument bound to [uname] at a call: match the callee's declared
   parameter by label, or by position among the unlabelled arguments;
   [None] when the parameter is not bound at this call (partial
   application), in which case the effect stays symbolic *)
let arg_for_param (callee : Race_extract.node) uname args =
  let rec find_param nolabel_idx = function
    | [] -> None
    | (lbl, unames) :: rest ->
      if List.mem uname unames then Some (lbl, nolabel_idx)
      else
        find_param
          (if lbl = Asttypes.Nolabel then nolabel_idx + 1 else nolabel_idx)
          rest
  in
  match find_param 0 callee.Race_extract.n_param_order with
  | None -> None
  | Some (Asttypes.Nolabel, k) ->
    let rec nth_nolabel k = function
      | [] -> None
      | (Asttypes.Nolabel, a) :: rest ->
        if k = 0 then Some a else nth_nolabel (k - 1) rest
      | _ :: rest -> nth_nolabel k rest
    in
    nth_nolabel k args
  | Some ((Asttypes.Labelled name | Asttypes.Optional name), _) ->
    List.find_map
      (fun (lbl, a) ->
        match lbl with
        | (Asttypes.Labelled name' | Asttypes.Optional name') when name' = name ->
          Some a
        | _ -> None)
      args

let payload_of_key key = String.sub key 2 (String.length key - 2)

let summaries (l : Race_extract.linked) =
  let node_by_id : (string, Race_extract.node) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (n : Race_extract.node) -> Hashtbl.replace node_by_id n.Race_extract.n_id n)
    l.Race_extract.l_nodes;
  let summary : (string, summary) Hashtbl.t = Hashtbl.create 256 in
  let tbl_of id =
    match Hashtbl.find_opt summary id with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      Hashtbl.replace summary id t;
      t
  in
  List.iter
    (fun (n : Race_extract.node) ->
      let t = tbl_of n.Race_extract.n_id in
      List.iter
        (fun (ef : Race_extract.effect_site) ->
          if ef.ef_prot = Unprotected then
            match key_of_target ef.ef_target with
            | None -> ()
            | Some (key, cls) ->
              let (_ : bool) =
                update t key cls
                  [ { h_site = ef.ef_site; h_desc = ef.ef_prim } ]
              in
              ())
        (List.rev n.Race_extract.n_effects))
    l.Race_extract.l_nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : Race_extract.node) ->
        let t = tbl_of n.Race_extract.n_id in
        List.iter
          (fun (c : Race_extract.linked_call) ->
            match Hashtbl.find_opt summary c.lc_callee with
            | None -> ()
            | Some ct ->
              let callee_node = Hashtbl.find_opt node_by_id c.lc_callee in
              let same_file =
                match callee_node with
                | Some cn ->
                  cn.Race_extract.n_site.Race_extract.s_file
                  = n.Race_extract.n_site.Race_extract.s_file
                | None -> false
              in
              let call_hop =
                { h_site = c.lc_site; h_desc = "calls " ^ c.lc_callee }
              in
              List.iter
                (fun (key, (cls, hops)) ->
                  let translated =
                    match cls with
                    | Shared_mut -> Some (key, Shared_mut)
                    | Captured_mut ->
                      (* resolve the capture against the caller's own
                         scope when stamps are comparable *)
                      let uname = payload_of_key key in
                      if same_file && Hashtbl.mem n.Race_extract.n_locals uname
                      then None
                      else if
                        same_file && Hashtbl.mem n.Race_extract.n_params uname
                      then Some ("p:" ^ uname, Param_mut)
                      else Some (key, Captured_mut)
                    | Param_mut -> (
                      let uname = payload_of_key key in
                      let arg =
                        Option.bind callee_node (fun cn ->
                            arg_for_param cn uname c.lc_args)
                      in
                      match arg with
                      | None ->
                        (* parameter not bound at this call (partial
                           application): keep it symbolic; it can never
                           match the caller's own parameters, so it dies
                           quietly at the root *)
                        Some (key, Param_mut)
                      | Some (A_global g) -> Some ("g:" ^ g, Shared_mut)
                      | Some (A_captured v) -> Some ("c:" ^ v, Captured_mut)
                      | Some (A_param u) -> Some ("p:" ^ u, Param_mut)
                      | Some A_local -> None)
                    | Pure | Local_mut -> None
                  in
                  match translated with
                  | None -> ()
                  | Some (key', cls') ->
                    if update t key' cls' (call_hop :: hops) then changed := true)
                (sorted_entries ct))
          (match Hashtbl.find_opt l.Race_extract.l_calls n.Race_extract.n_id with
          | Some cs -> cs
          | None -> []))
      l.Race_extract.l_nodes
  done;
  summary

(* ----------------------------- findings --------------------------- *)

let render_hop h =
  Printf.sprintf "%s:%d %s" h.h_site.Race_extract.s_file h.h_site.Race_extract.s_line
    h.h_desc

let findings (l : Race_extract.linked) summary =
  (* merge across roots: one finding per (rule, file, target), with the
     sorted roots that reach it and the shortest witness *)
  let acc : (string, Analysis.Findings.t * string list) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (root_id, _spawn) ->
      match Hashtbl.find_opt summary root_id with
      | None -> ()
      | Some t ->
        List.iter
          (fun (key, (cls, hops)) ->
            let rule =
              match cls with
              | Shared_mut -> Some "race-shared-mut"
              | Captured_mut -> Some "race-captured-mut"
              | _ -> None
            in
            match rule with
            | None -> ()
            | Some rule -> (
              let msite = (List.nth hops (List.length hops - 1)).h_site in
              let f =
                {
                  Analysis.Findings.rule;
                  file = msite.Race_extract.s_file;
                  line = msite.Race_extract.s_line;
                  target = display_of_key key;
                  message = "";
                  witness = root_id :: List.map render_hop hops;
                  extra = [];
                  reason = None;
                }
              in
              let k = Analysis.Findings.key f in
              match Hashtbl.find_opt acc k with
              | None -> Hashtbl.replace acc k (f, [ root_id ])
              | Some (f0, roots) ->
                (* keep the shortest witness; ties by root order *)
                let f0 =
                  if List.length f.witness < List.length f0.witness then
                    { f0 with witness = f.witness }
                  else f0
                in
                Hashtbl.replace acc k
                  (f0, List.sort_uniq String.compare (root_id :: roots))))
          (sorted_entries t))
    l.Race_extract.l_roots;
  Hashtbl.fold
    (fun _ ((f : Analysis.Findings.t), roots) acc ->
      {
        f with
        message =
          Printf.sprintf "%s mutated from parallel root(s) %s" f.target
            (String.concat ", " roots);
        extra =
          [
            ( "roots",
              Analysis.Json_out.List
                (List.map (fun r -> Analysis.Json_out.String r) roots) );
          ];
      }
      :: acc)
    acc []
  |> Analysis.Findings.sort

let run (l : Race_extract.linked) =
  let mutations, protected =
    List.fold_left
      (fun (m, p) (n : Race_extract.node) ->
        List.fold_left
          (fun (m, p) (ef : Race_extract.effect_site) ->
            (m + 1, if ef.ef_prot = Unprotected then p else p + 1))
          (m, p) n.Race_extract.n_effects)
      (0, 0) l.Race_extract.l_nodes
  in
  {
    r_findings = findings l (summaries l);
    r_roots = l.Race_extract.l_roots;
    r_mutations = mutations;
    r_protected = protected;
  }

let site_str (s : Race_extract.site) = Printf.sprintf "%s:%d" s.s_file s.s_line

let summary_json r =
  Analysis.Json_out.(
    Obj
      [
        ( "roots",
          List
            (List.map
               (fun (id, s) ->
                 Obj [ ("node", String id); ("spawned_at", String (site_str s)) ])
               r.r_roots) );
        ("mutation_sites", Int r.r_mutations);
        ("protected_sites", Int r.r_protected);
        ("parallel_roots", Int (List.length r.r_roots));
      ])

let rules =
  [
    ( "race-shared-mut",
      "module-level mutable state is mutated by a domain-parallel task \
       without atomic, lock, or domain-local discipline" );
    ( "race-captured-mut",
      "state captured by a closure is mutated by a domain-parallel task \
       without atomic, lock, or domain-local discipline" );
  ]
