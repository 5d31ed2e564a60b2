(** Schedule-perturbation sanitizer.

    A correct simulator's trajectory is a function of its seed alone: it
    must not depend on event-queue tie-breaking among same-timestamp
    events beyond the engine's documented FIFO rule, nor on [Hashtbl]
    iteration order (which shifts with bucket counts), nor on state one
    run leaves for the next.  This module holds the two perturbation
    knobs the engine reads, and the one driver that re-runs a seeded
    digest thunk under named {!mode}s and compares digests — the dynamic
    complement to clove-check's static [sema-*] rules.
    [Experiments.Sweep] adds the execution-width modes of the
    [clove-sim determinism] matrix.

    The knobs must only change between complete runs (the event queue's
    heap invariant depends on a fixed comparator), which is why they are
    set through {!with_settings} / a {!mode} rather than flipped ad hoc. *)

type tiebreak =
  | Fifo  (** same-timestamp events fire in schedule order (the default) *)
  | Lifo  (** same-timestamp events fire in reverse schedule order *)

val tiebreak : tiebreak ref
(** Read by [Engine.Event_queue] on every comparison.  Do not write
    directly while a queue is non-empty; use {!with_settings}. *)

val perturbed_size : int -> int
(** [perturbed_size n] is the initial size [Engine.Det.create] actually
    passes to [Hashtbl.create]: [n] itself under a zero salt, otherwise a
    deterministic per-(n, salt) enlargement. *)

val with_settings : tb:tiebreak -> salt:int -> (unit -> 'a) -> 'a
(** Run a thunk under the given knob settings, restoring the previous
    settings afterwards (also on exceptions). *)

type mode = string * ((unit -> string) -> string)
(** A name, and a wrapper that runs a digest thunk under one setting and
    restores the previous one afterwards. *)

type outcome = { mode : string; digest : string; matches : bool }

val rerun : mode
(** The identity: a second, unchanged run. *)

val standard_modes : mode list
(** {!rerun}, [tiebreak-lifo], [tbl-salt-3] and [tbl-salt-11]. *)

val check_schedule_stability :
  ?modes:mode list ->
  label:string ->
  run:(unit -> string) ->
  unit ->
  string * outcome list
(** Run [run] once unperturbed, then once per mode, comparing the
    returned digests.  Each run starts from cleared per-run audit state;
    each mismatch records a [schedule-stability] violation with
    {!Audit.record_violation}.  Returns the baseline digest and the
    per-mode outcomes. *)

val stable : outcome list -> bool
(** All digests matched the baseline. *)

val pp_outcomes : label:string -> Format.formatter -> string * outcome list -> unit
(** One line per run, each prefixed with [label]. *)
