(** Deterministic, splittable pseudo-random number generator.

    A small xoshiro256**-based generator.  Every stochastic component of the
    simulator (workload arrivals, ECMP seeds, scheme tie-breaking) draws from
    its own [Rng.t] split off a single experiment seed, so that runs are
    exactly reproducible and schemes can be compared on identical workloads. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split_named : t -> string -> t
(** [split_named t name] derives a generator keyed on [name] without
    advancing [t]: components get stable streams regardless of the order in
    which they are created. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (> 0). *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
