(** RFC 6298-style smoothed RTT estimation and retransmission timeout.

    SRTT and RTTVAR follow the standard EWMA update; the RTO is clamped to
    [10 ms, 2 s] (the datacenter testbed setting) and doubles on backoff. *)

type t

val create : unit -> t

val sample : t -> Sim_time.span -> unit
(** Feed a new RTT measurement; resets any backoff. *)

val rto : t -> Sim_time.span
(** Current timeout, including backoff. *)

val srtt : t -> default:Sim_time.span -> Sim_time.span
(** The smoothed RTT, or [default] before the first sample. *)

val pto : t -> Sim_time.span
(** Tail-loss probe timeout: 2 SRTT + 100 us, or 1 ms before the first
    sample. *)

val backoff : t -> unit
(** Exponential backoff after a timeout (doubles RTO up to the max). *)
