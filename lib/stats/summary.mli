(** Accumulating summary statistics over float samples.

    Keeps every sample (experiments are small enough) so that exact
    percentiles can be computed after the fact. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the samples; [nan] when empty. *)

val total : t -> float
val min_value : t -> float
val max_value : t -> float
val stddev : t -> float
(** Population standard deviation; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in \[0,100\], by linear interpolation between
    order statistics; [nan] when empty. *)

val median : t -> float

val merge : t -> t -> t
(** A fresh summary containing the samples of both arguments. *)
