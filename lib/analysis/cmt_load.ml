(* Discovery and loading of compiler-generated .cmt typedtrees.

   dune emits a .cmt next to every .cmo/.cmx (the lib dune files pass
   -bin-annot explicitly so the guarantee does not rest on dune's
   default).  The analyzer scans a build root — [_build/default] when
   run from the repo root, [.] when run from inside a dune action —
   for *.cmt and *.cmti files, reads each with [Cmt_format.read_cmt],
   and keeps implementations and interfaces whose recorded source path
   falls under one of the requested source roots. *)

type unit_info = {
  u_modname : string;  (** compilation unit, e.g. ["Engine__Scheduler"] *)
  u_short : string;  (** short module name, e.g. ["Scheduler"] *)
  u_source : string;  (** source path as compiled, e.g. ["lib/engine/scheduler.ml"] *)
  u_structure : Typedtree.structure;
}

type intf_info = {
  i_modname : string;
  i_short : string;
  i_source : string;  (** e.g. ["lib/engine/scheduler.mli"] *)
  i_signature : Typedtree.signature;
}

let short_of_modname modname =
  (* dune-wrapped units are ["Lib__Module"]; the toplevel alias module
     itself ("Engine") and unwrapped units have no separator *)
  let n = String.length modname in
  let rec after_last_sep i best =
    if i + 1 >= n then best
    else if modname.[i] = '_' && modname.[i + 1] = '_' then
      after_last_sep (i + 2) (i + 2)
    else after_last_sep (i + 1) best
  in
  let i = after_last_sep 0 0 in
  String.sub modname i (n - i)

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rec scan_dir path acc =
  match Sys.readdir path with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let full = Filename.concat path name in
        match Sys.is_directory full with
        (* a compiler's temporary file renamed away since [readdir]: the
           test units may still be building while clove-check runs *)
        | exception Sys_error _ -> acc
        | true ->
          (* the install tree duplicates every .objs cmt *)
          if name = "install" || name = ".git" then acc else scan_dir full acc
        | false ->
          if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
          then full :: acc
          else acc)
      acc entries

type loaded = Impl of unit_info | Intf of intf_info

let load_file path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    let modname = cmt.Cmt_format.cmt_modname in
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some source ->
      Some
        (Impl
           {
             u_modname = modname;
             u_short = short_of_modname modname;
             u_source = source;
             u_structure = str;
           })
    | Cmt_format.Interface sg, Some source ->
      Some
        (Intf
           {
             i_modname = modname;
             i_short = short_of_modname modname;
             i_source = source;
             i_signature = sg;
           })
    | _ -> None)

let in_scope prefixes source =
  prefixes = [] || List.exists (fun p -> has_prefix p source) prefixes

(* the same unit can be discovered through several build contexts (byte
   and native objects, for one); keep one per (unit name, source path),
   sorted by source path so the order is deterministic *)
let dedup ~name ~source items =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let key = (name x, source x) in
      (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
    items
  |> List.stable_sort (fun a b -> String.compare (source a) (source b))

let load ~root ~source_prefixes =
  let loaded = List.filter_map load_file (List.rev (scan_dir root [])) in
  let impls =
    List.filter_map
      (function Impl u when in_scope source_prefixes u.u_source -> Some u | _ -> None)
      loaded
  in
  let intfs =
    List.filter_map
      (function Intf i when in_scope source_prefixes i.i_source -> Some i | _ -> None)
      loaded
  in
  ( dedup ~name:(fun u -> u.u_modname) ~source:(fun u -> u.u_source) impls,
    dedup ~name:(fun i -> i.i_modname) ~source:(fun i -> i.i_source) intfs )

let default_root () = if Sys.file_exists "_build/default" then "_build/default" else "."

(* One unit's module aliases, keyed by [Ident.unique_name] and stored
   resolved: a walk records each alias before its scope, so a chain of
   aliases resolves to its end in one lookup. *)
type aliases = (string, Path.t) Hashtbl.t

let aliases () = Hashtbl.create 8

let rec resolve aliases p =
  match p with
  | Path.Pident id ->
    Option.value ~default:p (Hashtbl.find_opt aliases (Ident.unique_name id))
  | Path.Pdot (q, s) -> Path.Pdot (resolve aliases q, s)
  | _ -> p

let rec alias_target aliases (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some (resolve aliases p)
  | Tmod_constraint (inner, _, _, _) -> alias_target aliases inner
  | _ -> None

let record_alias aliases id me =
  match (id, alias_target aliases me) with
  | Some id, Some p ->
    Hashtbl.replace aliases (Ident.unique_name id) p;
    true
  | _ -> false
