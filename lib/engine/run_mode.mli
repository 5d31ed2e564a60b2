(** How a run executes, as one value given to {!Scheduler.create} (and
    to the scenario builder and the sweeps) and never changed while the
    run is live: the schedule-perturbation knob (the event queue's
    residual tie-break), whether the runtime invariant auditor records
    violations, and the shard and domain widths.  A correct simulator's
    digest is a function of its seed alone, so it must not move with the
    knob or the widths: {!check_stability} runs a digest under a
    baseline mode and under named changes of it, and compares.  Table
    iteration order needs no knob: every simulator table is an
    {!Int_table}, whose never-salted order clove-check's
    [sema-hashtbl-order] rule keeps out of effects. *)

type t = {
  tiebreak : Event_queue.tiebreak;
  audit : bool;
  shards : int;  (** PDES width of one scenario; 1 = serial *)
  domains : int;  (** pool width independent runs fan out over *)
}

val default : t
(** FIFO, no audit, 1 shard, {!Domain_pool.default_domains}. *)

type transform = string * (t -> t)
type outcome = { mode : string; digest : string; matches : bool }

val check_stability : modes:transform list -> (t -> string) -> string * outcome list
(** [check_stability ~modes run] is [run serial] ({!default} at 1
    domain) and, for each [(name, f)] of [modes], whether
    [run (f serial)] gave the same digest. *)

val pp_outcomes : label:string -> Format.formatter -> string * outcome list -> unit
(** One line per run, each prefixed with [label]. *)
