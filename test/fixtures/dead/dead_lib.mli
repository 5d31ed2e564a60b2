(* Three exports, one of them dead. *)

type span
type stale

val ( +! ) : int -> int -> int
(** used only through a local open, [Dead_lib.(a +! b)] *)

val span : int -> span
(** shares its name with a type the consumer also uses *)

val stale : int
(** nothing uses it; the consumer names only the type [stale] *)
