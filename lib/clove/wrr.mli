(** Smooth weighted round-robin.

    The classic interleaving WRR (as in nginx): each pick adds every item's
    weight to its accumulator, selects the largest accumulator, and deducts
    the weight total from the winner.  Over any window of picks each item is
    selected in proportion to its (current) weight, and selections are
    maximally spread out — exactly the rotate-through-ports behaviour
    Clove-ECN wants for flowlets. *)

type t

val create : weights:float array -> t
(** Raises [Invalid_argument] on an empty array or non-positive total. *)

val pick : t -> int
(** Index of the next selection. *)

val set_weight : t -> int -> float -> unit
(** Weights below 0 are clamped to 0; at least one weight must stay
    positive overall for [pick] to be meaningful. *)

val weight : t -> int -> float
val weights : t -> float array
(** A copy of the current weights. *)

val normalize : t -> unit
(** Scale weights to sum to 1 (no effect on pick proportions). *)
