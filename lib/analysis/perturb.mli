(** Schedule-perturbation sanitizer.

    A correct simulator's trajectory is a function of its seed alone: it
    must not depend on event-queue tie-breaking among same-timestamp
    events beyond the engine's documented FIFO rule, nor on [Hashtbl]
    iteration order (which shifts with bucket counts).  This module holds
    the two perturbation knobs the engine reads, and a driver that
    re-runs a seeded scenario under each perturbation and compares state
    digests — the dynamic complement to clove-check's static [sema-*]
    rules: whatever order-dependence slips past them diverges a
    perturbed digest here.

    The knobs must only change between complete runs (the event queue's
    heap invariant depends on a fixed comparator), which is why they are
    set through {!with_settings} / {!check_schedule_stability} rather
    than flipped ad hoc. *)

type tiebreak =
  | Fifo  (** same-timestamp events fire in schedule order (the default) *)
  | Lifo  (** same-timestamp events fire in reverse schedule order *)

val tiebreak : tiebreak ref
(** Read by [Engine.Event_queue] on every comparison.  Do not write
    directly while a queue is non-empty; use {!with_settings}. *)

val set_tbl_size_salt : int -> unit

val reset : unit -> unit
(** Restore both knobs to the unperturbed defaults. *)

val perturbed_size : int -> int
(** [perturbed_size n] is the initial size [Engine.Det.create] actually
    passes to [Hashtbl.create]: [n] itself under a zero salt, otherwise a
    deterministic per-(n, salt) enlargement. *)

type outcome = { perturbation : string; digest : string; matches : bool }

val with_settings : tb:tiebreak -> salt:int -> (unit -> 'a) -> 'a
(** Run a thunk under the given knob settings, restoring the previous
    settings afterwards (also on exceptions). *)

val standard_perturbations : (string * tiebreak * int) list
(** [(name, tiebreak, salt)]: reversed tie-breaking, and two distinct
    hashtable sizing salts. *)

val check_schedule_stability :
  ?perturbations:(string * tiebreak * int) list ->
  label:string ->
  run:(unit -> string) ->
  unit ->
  string * outcome list
(** Run [run] once unperturbed, then once per perturbation, comparing the
    returned digests.  Each mismatch records a [schedule-stability]
    violation with {!Audit.record_violation}.  Returns the baseline
    digest and per-perturbation outcomes. *)

val stable : outcome list -> bool
(** All digests matched the baseline. *)

val pp_outcomes : Format.formatter -> string * outcome list -> unit
