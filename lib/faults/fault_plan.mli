(** Typed, deterministic fault plans.

    A plan is a time-ordered list of fault events parsed from a compact
    CLI spec, e.g.

    {v down s2-l2b@60ms; up s2-l2b@120ms v}

    Each [;]-separated item is [<verb> [target] [key=value ...] @<time>],
    where the time (and every duration) takes an [ns]/[us]/[ms]/[s]
    suffix (bare numbers are seconds), and may abut the target as in
    ["down s2-l2b@60ms"].  Verbs:

    - [down <edge>] / [up <edge>] — fail / restore a named edge;
    - [flap <edge> period=10ms duty=0.5 until=120ms] — periodic
      down/up: down for [duty*period], up for the rest, until [until]
      (or the end of the run);
    - [brownout <edge> frac=0.5 loss=0.01 until=120ms] — degrade an
      edge to [frac] of its capacity with wire loss probability [loss];
    - [feedback-loss p=0.3 until=120ms] — every vswitch drops
      congestion feedback with probability [p];
    - [probe-loss p=0.3 until=120ms] — every vswitch drops traceroute
      probes and replies with probability [p];
    - [switch-down <switch>] / [switch-up <switch>] — fail / restore
      every edge incident to a switch.

    Edge names follow the topology naming convention of the executing
    engine (for the paper's leaf–spine: ["s2-l2b"] is the second
    parallel link between spine 2 and leaf 2; see
    {!Fault_engine.leaf_spine_naming}; for 3-tier Clos, ["core0"] /
    ["s1.2"] / ["l2.1-s2.2"] — see {!Fault_engine.clos3_naming}).
    Parsing is pure; pass [?names] membership predicates (from
    {!Fault_engine.names}) to reject unknown switch/edge names at parse
    time instead of arm time. *)

type spec =
  | Down of string
  | Up of string
  | Flap of {
      edge : string;
      period : Sim_time.span;
      duty : float;  (** fraction of [period] spent down, in (0, 1) *)
      stop : Sim_time.span option;
    }
  | Brownout of {
      edge : string;
      capacity_frac : float;  (** (0, 1] *)
      loss_prob : float;  (** [0, 1) *)
      until : Sim_time.span option;
    }
  | Feedback_loss of { prob : float; until : Sim_time.span option }
  | Probe_loss of { prob : float; until : Sim_time.span option }
  | Switch_down of string
  | Switch_up of string

type event = { at : Sim_time.span; spec : spec }

type t = event list
(** Sorted by [at] (stable for equal times, preserving spec order). *)

type names = {
  edge_known : string -> bool;
  switch_known : string -> bool;
}
(** Membership predicates over a topology's symbolic names, used by
    {!parse} to fail fast on typos.  Build one from a live naming with
    {!Fault_engine.names}. *)

val parse : ?names:names -> string -> (t, string) result
(** Parse a CLI fault spec; the error is a human-readable message naming
    the offending item.  With [?names], any edge/switch target unknown to
    the predicates is a parse error ([unknown edge "x" in "item"]). *)

val span_of_string : string -> (Sim_time.span, string) result
(** ["60ms"], ["10us"], ["2s"], ["500ns"], or bare seconds. *)

val to_string : t -> string
(** Round-trips through {!parse} (modulo whitespace and item order of
    simultaneous events). *)

val disruption_window : t -> (Sim_time.span * Sim_time.span option) option
(** [(first fault start, last known restoration)] — the restoration is
    [None] when some fault never ends inside the plan (e.g. a [down]
    without an [up]).  Drives the scorecard's pre/during/post split. *)
