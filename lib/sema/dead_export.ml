(* The typed unused-export pass: see dead_export.mli.  Uses are collected
   per unit as raw paths plus the unit's module aliases, then resolved
   once the whole unit has been walked, so an alias bound anywhere in
   the unit is followed. *)

open Typedtree

let rule = "dead-export"

let tests = "test/"

(* [module X = M], possibly under the implicit constraint the
   typechecker adds: X is a new name for M, not a use of it *)
let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, Tmodtype_implicit, _) -> alias_target me
  | _ -> None

(* a path as unit-level names, through the unit's aliases; [None] for a
   module local to the unit or a functor application *)
let rec resolve aliases p =
  match Path.flatten p with
  | `Contains_apply -> None
  | `Ok (id, names) -> (
    match Hashtbl.find_opt aliases id with
    | Some target -> Option.map (fun base -> base @ names) (resolve aliases target)
    | None -> if Ident.global id then Some (Ident.name id :: names) else None)

type uses = {
  values : (string * string, unit) Hashtbl.t;  (* (short module, value) *)
  whole : (string, unit) Hashtbl.t;  (* modules used whole *)
}

let scan uses (u : Cmt_load.unit_info) =
  let aliases = Hashtbl.create 8 in
  let idents = ref [] and wholes = ref [] in
  let bind id me =
    match (id, alias_target me) with
    | Some id, Some p ->
      Hashtbl.replace aliases id p;
      true
    | _ -> false
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      structure_item =
        (fun self si ->
          match si.str_desc with
          | Tstr_module mb when bind mb.mb_id mb.mb_expr -> ()
          | _ -> default.structure_item self si);
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> idents := p :: !idents
          | Texp_letmodule (id, _, _, me, body) when bind id me -> self.expr self body
          | _ -> default.expr self e);
      (* an opened module's values show up as full paths where used *)
      open_declaration =
        (fun self od ->
          if alias_target od.open_expr = None then default.open_declaration self od);
      module_expr =
        (fun self me ->
          (match me.mod_desc with
          | Tmod_ident (p, _) -> wholes := p :: !wholes
          | _ -> ());
          default.module_expr self me);
    }
  in
  it.structure it u.Cmt_load.u_structure;
  let short = Cmt_load.short_of_modname in
  List.iter
    (fun p ->
      match Option.map List.rev (resolve aliases p) with
      | Some (v :: m :: _) when short m <> u.Cmt_load.u_short ->
        Hashtbl.replace uses.values (short m, v) ()
      | _ -> ())
    !idents;
  List.iter
    (fun p ->
      match Option.map List.rev (resolve aliases p) with
      | Some (m :: _) -> Hashtbl.replace uses.whole (short m) ()
      | _ -> ())
    !wholes

(* ["Engine__Sim_time"] → ["Engine"]: a whole use of the wrapper is a
   whole use of every module in the library *)
let wrapper modname =
  match String.index_opt modname '_' with
  | Some i when i + 1 < String.length modname && modname.[i + 1] = '_' ->
    String.sub modname 0 i
  | _ -> modname

let findings ~scope units intfs =
  let uses = { values = Hashtbl.create 1024; whole = Hashtbl.create 16 } in
  List.iter
    (fun (u : Cmt_load.unit_info) ->
      if
        (not (Cmt_load.in_scope [ tests ] u.Cmt_load.u_source))
        || Cmt_load.in_scope scope u.Cmt_load.u_source
      then scan uses u)
    units;
  List.concat_map
    (fun (i : Cmt_load.intf_info) ->
      let m = i.Cmt_load.i_short in
      if
        (not (Cmt_load.in_scope scope i.Cmt_load.i_source))
        || Hashtbl.mem uses.whole m
        || Hashtbl.mem uses.whole (wrapper i.Cmt_load.i_modname)
      then []
      else
        List.filter_map
          (fun item ->
            match item.sig_desc with
            | Tsig_value vd when not (Hashtbl.mem uses.values (m, vd.val_name.txt)) ->
              let target = m ^ "." ^ vd.val_name.txt in
              Some
                {
                  Analysis.Findings.rule;
                  file = i.Cmt_load.i_source;
                  line = vd.val_loc.Location.loc_start.Lexing.pos_lnum;
                  target;
                  message =
                    Printf.sprintf "%s is exported but no other unit uses it" target;
                  witness = [];
                  extra = [];
                  reason = None;
                }
            | _ -> None)
          i.Cmt_load.i_signature.sig_items)
    intfs
