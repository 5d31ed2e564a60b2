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

val create : rate_bps:float -> Scheduler.t -> t
(** Fixed [alpha] = 0.1 and [tick] = 10us (tau = 100us). *)

val observe : t -> bytes_len:int -> unit
(** Record a transmission happening now. *)

val observe_at : t -> now_ns:int -> bytes_len:int -> unit
(** Record a transmission that started at instant [now_ns], which may lie
    before the clock but not before the last observation or read: a
    {!Link} replays its frame starts in order, before anything reads
    the estimator. *)

val utilization : t -> float
(** Current utilization estimate in [0, ~1.2]; decays to 0 when idle. *)
