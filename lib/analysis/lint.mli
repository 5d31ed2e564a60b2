(** [missing-mli]: every library module ships an interface.  A rule on
    file names alone; the rules about code are {!Det_rules}. *)

val check_interface_presence :
  ml_files:string list -> mli_files:string list -> Findings.t list
(** A finding for each [.ml] under [lib/] in [ml_files] with no matching
    interface in [mli_files] (paths compared with their extension
    removed); other paths, dune's [.ml-gen] alias modules among them,
    are not library modules.  Line 1, target the module name. *)

val findings : Cmt_load.unit_info list -> Cmt_load.intf_info list -> Findings.t list
(** clove-check's [missing-mli]: {!check_interface_presence} over the
    source paths of loaded implementations and interfaces. *)
