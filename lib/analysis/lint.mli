(** clove-lint's one rule, on file names alone: every public library
    module ships an interface.  The rules about code are clove-check's
    typed rules ([Sema.Det_rules]). *)

type finding = { file : string; line : int; rule : string; message : string }

val check_interface_presence :
  ml_files:string list -> mli_files:string list -> finding list
(** [missing-mli] findings for library modules ([ml_files]) that have no
    matching interface in [mli_files].  Paths are compared with their
    extension removed. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] message] *)
