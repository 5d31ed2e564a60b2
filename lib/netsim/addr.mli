(** Endpoint addresses.

    Hosts (hypervisors) are addressed by small integers; the simulator does
    not need full IP semantics, only identity and hashing. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
