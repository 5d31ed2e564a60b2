(** RFC 6298-style smoothed RTT estimation and retransmission timeout.

    SRTT and RTTVAR follow the standard EWMA update; the RTO is clamped to
    [min_rto, max_rto] and doubles on backoff. *)

type t

val create : ?min_rto:Sim_time.span -> ?max_rto:Sim_time.span -> unit -> t
(** Defaults: min 10 ms (datacenter testbed setting), max 2 s. *)

val sample : t -> Sim_time.span -> unit
(** Feed a new RTT measurement; resets any backoff. *)

val rto : t -> Sim_time.span
(** Current timeout, including backoff. *)

val srtt : t -> Sim_time.span option
(** [None] until the first sample. *)

val has_sample : t -> bool
(** Whether {!srtt_span} is meaningful yet. *)

val srtt_span : t -> Sim_time.span
(** Option-free SRTT for per-ACK hot paths; returns garbage (zero) before
    the first sample — guard with {!has_sample}. *)

val backoff : t -> unit
(** Exponential backoff after a timeout (doubles RTO up to the max). *)
