(** Discounted Rate Estimator (DRE), as used by CONGA and by INT-capable
    switches to estimate egress-link utilization.

    The estimator keeps a register X that is incremented by the packet size
    on every transmission and decayed multiplicatively with factor
    (1 - alpha) every [tick] interval.  X is then proportional to the recent
    sending rate over a time constant tau = tick / alpha, and
    X / (rate * tau) estimates link utilization in [0, 1+).

    Decay is applied lazily from the elapsed time rather than with timers,
    which keeps the estimator allocation-free on the fast path. *)

type t

val create :
  ?alpha:float -> ?tick:Sim_time.span -> rate_bps:float -> Scheduler.t -> t
(** Defaults: [alpha] = 0.1, [tick] = 10us (tau = 100us). *)

val observe : t -> bytes_len:int -> unit
(** Record a transmission happening now. *)

val utilization : t -> float
(** Current utilization estimate in [0, ~1.2]; decays to 0 when idle. *)
