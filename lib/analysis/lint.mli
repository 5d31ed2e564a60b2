(** clove-lint: a lexical static checker for this repository's OCaml
    sources.

    The rules target the failure modes a discrete-event network simulator
    is most sensitive to: unsafe [Obj.magic] sentinels, polymorphic
    comparison applied where a typed compare exists (records, floats,
    [Sim_time]), silently discarded scheduler/queue results, raising
    [Hashtbl.find], exact float equality in conditionals, and public
    library modules without an interface.

    Findings are suppressed with the shared marker grammar of
    {!Findings} on the same or the immediately preceding line:

    {[ (* justification — lint: allow <rule> *) ]}

    The checker is deliberately lexical (comments and string literals are
    masked out, then rules match on the remaining code text): it has no
    type information, so each rule is tuned to this codebase's idioms and
    every suppression is expected to carry a human justification. *)

type finding = { file : string; line : int; rule : string; message : string }

val check_source : file:string -> string -> finding list
(** Run every per-line rule over one [.ml] source, honouring
    suppressions; every unjustified marker is an [allow-empty] finding.
    Findings are in line order. *)

val check_interface_presence :
  ml_files:string list -> mli_files:string list -> finding list
(** [missing-mli] findings for library modules ([ml_files]) that have no
    matching interface in [mli_files].  Paths are compared with their
    extension removed. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] message] *)
