(* The typed unused-export pass: see dead_export.mli.  Uses are collected
   per unit as raw paths, then resolved through the unit's module
   aliases ({!Cmt_load.resolve}) once the whole unit has been walked. *)

open Typedtree

let rule = "dead-export"

let tests = "test/"

(* a path as unit-level names, through the unit's aliases; [None] for a
   module local to the unit or a functor application *)
let unit_names aliases p =
  match Path.flatten (Cmt_load.resolve aliases p) with
  | `Contains_apply -> None
  | `Ok (id, names) -> if Ident.global id then Some (Ident.name id :: names) else None

type uses = {
  values : (string * string, unit) Hashtbl.t;  (* (short module, value) *)
  whole : (string, unit) Hashtbl.t;  (* modules used whole *)
}

let scan uses (u : Cmt_load.unit_info) =
  let aliases = Cmt_load.aliases () in
  let idents = ref [] and wholes = ref [] in
  let bind = Cmt_load.record_alias aliases in
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
          if Cmt_load.alias_target aliases od.open_expr = None then
            default.open_declaration self od);
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
      match Option.map List.rev (unit_names aliases p) with
      | Some (v :: m :: _) when short m <> u.Cmt_load.u_short ->
        Hashtbl.replace uses.values (short m, v) ()
      | _ -> ())
    !idents;
  List.iter
    (fun p ->
      match Option.map List.rev (unit_names aliases p) with
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
                  Findings.rule;
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
