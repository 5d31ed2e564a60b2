(** Piecewise-linear cumulative distribution functions, for sampling
    from published workload CDFs (web-search and data-mining flow sizes)
    with linear interpolation between knots, as is standard in
    datacenter simulators. *)

type t

val of_knots : (float * float) list -> t
(** [of_knots [(x0, p0); ...]] builds a piecewise-linear CDF from knots with
    non-decreasing [x] and [p], [p] in \[0,1\], last [p] = 1.  Raises
    [Invalid_argument] on malformed input. *)

val inverse : t -> float -> float
(** [inverse t p] = smallest x with CDF(x) >= p, interpolated; [p] in
    \[0,1\]. Used for inverse-transform sampling. *)

val mean : t -> float
(** Mean of the piecewise-linear distribution. *)

val points : t -> (float * float) array
(** The (x, p) knots. *)
