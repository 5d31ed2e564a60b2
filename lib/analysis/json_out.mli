(** Minimal JSON emission for CI artifacts (analyzer reports, bench
    records).  Writing only — the repo has no JSON dependency, and the
    consumers are external tooling, so a small serializer suffices. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialize as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_file : string -> t -> unit
