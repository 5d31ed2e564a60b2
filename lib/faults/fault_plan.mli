(** Typed, deterministic fault plans.

    A plan is a time-ordered list of fault events parsed from a compact
    CLI spec, e.g.

    {v down s2-l2b@60ms; up s2-l2b@120ms v}

    Each [;]-separated item is [<verb> [target] [key=value ...] @<time>],
    where the time (and every duration) takes an [ns]/[us]/[ms]/[s]
    suffix (bare numbers are seconds), and may abut the target as in
    ["down s2-l2b@60ms"].  Verbs:

    - [down <edge>] / [up <edge>] — fail / restore a named edge;
    - [flap <edge> period=10ms duty=0.5] — periodic down/up: down for
      [duty*period], up for the rest;
    - [brownout <edge> frac=0.5 loss=0.01] — degrade an edge to [frac]
      of its capacity with wire loss probability [loss];
    - [feedback-loss p=0.3] — every vswitch drops congestion feedback
      with probability [p];
    - [probe-loss p=0.3] — every vswitch drops traceroute probes and
      replies with probability [p];
    - [switch-down <switch>] / [switch-up <switch>] — fail / restore
      every edge incident to a switch.

    [until=<time>] ends a flap, brownout, feedback-loss or probe-loss at
    that absolute instant (without it the fault lasts to the end of the
    run); the four other verbs take no [until=].  A [key=value] its verb
    does not read, or a repeated key, is a parse error.

    Switch and edge names follow {!Fault_engine.clos_naming}: on the
    paper's leaf–spine, ["s2-l2b"] is the second parallel link between
    spine 2 and leaf 2; with pods and cores, ["core0"], ["s1.2"] and
    ["l2.1-s2.2"] name a core, pod 1's second spine and an edge in
    pod 2.
    Parsing is pure; pass [?names] (from {!Fault_engine.clos_naming}) to
    reject unknown switch/edge names at parse time instead of arm
    time. *)

type spec =
  | Down of string
  | Up of string
  | Flap of {
      edge : string;
      period : Sim_time.span;
      duty : float;  (** fraction of [period] spent down, in (0, 1) *)
    }
  | Brownout of {
      edge : string;
      capacity_frac : float;  (** (0, 1] *)
      loss_prob : float;  (** [0, 1) *)
    }
  | Feedback_loss of float  (** drop probability, [0, 1) *)
  | Probe_loss of float  (** drop probability, [0, 1) *)
  | Switch_down of string
  | Switch_up of string

type event = {
  at : Sim_time.span;
  until : Sim_time.span option;
      (** the end of a flap, brownout or loss profile; [None] for the
          other verbs *)
  spec : spec;
}

type t = event list
(** Sorted by [at] (stable for equal times, preserving spec order). *)

type names = {
  resolve_edge : string -> Topology.edge option;
  resolve_switch : string -> int option;
}
(** A topology's symbolic names: {!parse} checks targets against it and
    {!Fault_engine.arm} resolves them through it. *)

val parse : ?names:names -> string -> (t, string) result
(** Parse a CLI fault spec; the error is a human-readable message naming
    the offending item.  With [?names], any edge/switch target it does
    not resolve is a parse error ([unknown edge "x" in "item"]). *)

(* oracle of test_faults' span_of_string case — lint: allow dead-export *)
val span_of_string : string -> (Sim_time.span, string) result
(** ["60ms"], ["10us"], ["2s"], ["500ns"], or bare seconds. *)

val to_string : t -> string
(** Round-trips through {!parse} (modulo whitespace and item order of
    simultaneous events). *)

val disruption_window : t -> (Sim_time.span * Sim_time.span) option
(** [(first fault start, settle instant)], or [None] for a plan with no
    fault.  The disruption settles at the latest restoration ([up],
    [switch-up] or [until]) when the plan has one, else at its last
    event: a permanent fault settles once it has fully set in.  Drives
    the scorecard's pre/during/post split. *)
