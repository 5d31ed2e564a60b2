(** Discovery and loading of compiler-generated [.cmt]/[.cmti] typedtrees.

    clove-check works on the typedtree rather than the parsetree: names
    are resolved, so [Hashtbl.replace] through an alias or an [open] is
    still seen, and idents carry stamps that distinguish a module-level
    table from a shadowing local. *)

type unit_info = {
  u_modname : string;  (** compilation unit, e.g. ["Engine__Scheduler"] *)
  u_short : string;  (** short module name, e.g. ["Scheduler"] *)
  u_source : string;  (** source path as compiled, relative to the repo root *)
  u_structure : Typedtree.structure;
}

type intf_info = {
  i_modname : string;
  i_short : string;
  i_source : string;  (** the [.mli] path, relative to the repo root *)
  i_signature : Typedtree.signature;
}

val short_of_modname : string -> string
(** ["Engine__Scheduler"] → ["Scheduler"]; names without a ["__"]
    separator are returned unchanged. *)

val in_scope : string list -> string -> bool
(** [in_scope prefixes source]: [source] starts with one of [prefixes]
    (an empty list admits everything). *)

val load :
  root:string -> source_prefixes:string list -> unit_info list * intf_info list
(** Every implementation ([.cmt]) and interface ([.cmti]) under [root],
    skipping [install] trees (dune duplicates artifacts there), whose
    recorded source path is {!in_scope} of [source_prefixes];
    deduplicated by unit name and sorted by source path. *)

val default_root : unit -> string
(** [_build/default] when it exists (running from the repo root),
    else ["."] (running from inside the build tree). *)

(** {2 Module aliases}

    The one resolver of [module X = M] (structure-level or [let module],
    through any signature constraint) that every rule reads paths
    through. *)

type aliases
(** One unit's aliases, filled in walk order. *)

val aliases : unit -> aliases

val resolve : aliases -> Path.t -> Path.t
(** [p] with an aliased head replaced by the path it names, so [H.iter]
    under [module H = Hashtbl] is [Hashtbl.iter]. *)

val alias_target : aliases -> Typedtree.module_expr -> Path.t option
(** The resolved module path [me] names; [None] for a structure, a
    functor application or an unpacked module. *)

val record_alias : aliases -> Ident.t option -> Typedtree.module_expr -> bool
(** Bind the ident as a name for {!alias_target}; [false] (nothing
    recorded) when [me] names no path or the binding is anonymous. *)
