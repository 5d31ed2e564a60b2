(** Simulation time.

    Time is an absolute instant measured in integer nanoseconds since the
    start of the simulation.  Using integers keeps event ordering exact and
    the simulation fully deterministic.  On a 64-bit platform the native
    [int] covers ~292 years of simulated time, far beyond any experiment. *)

type t = private int
(** An absolute simulation instant, in nanoseconds. *)

type span = private int
(** A duration, in nanoseconds.  Always non-negative in well-formed code. *)

val zero : t
(** The simulation epoch. *)

val of_ns : int -> t
(** [of_ns n] is the instant [n] nanoseconds after the epoch. *)

val to_ns : t -> int
(** Nanoseconds since the epoch. *)

val ns : int -> span
val us : int -> span
val ms : int -> span
val sec : float -> span

val span_ns : span -> int
val span_of_ns : int -> span
val span_of_sec : float -> span
val span_to_sec : span -> float

val add : t -> span -> t
val diff : t -> t -> span
(** [diff a b] is [a - b]; raises [Invalid_argument] if [a < b]. *)

val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val max : t -> t -> t

val compare_span : span -> span -> int
val add_span : span -> span -> span
val sub_span : span -> span -> span
(** [sub_span a b] is [max 0 (a - b)]. *)

val mul_span : span -> float -> span
(** Scale a duration by a non-negative factor (rounded to nearest ns). *)

val zero_span : span

val of_span : span -> t
(** The instant a [span] after the epoch (for horizons like
    [Scheduler.run ~until:(of_span (ms 60))]), avoiding raw ns casts. *)

val to_sec : t -> float
(** Seconds since the epoch, for reporting. *)

(** Transmission-time helper: time to serialize [bytes] at [rate_bps]. *)
val tx_time : bytes_len:int -> rate_bps:float -> span
