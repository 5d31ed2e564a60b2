(** clove-sema: an AST-level determinism and unit-safety analyzer.

    Where clove-lint ({!Analysis.Lint}) is lexical, clove-sema parses the
    real OCaml AST with [compiler-libs] and checks properties that need
    syntactic structure:

    {b Determinism passes}
    - [sema-hashtbl-order]: a [Hashtbl.iter]/[Hashtbl.fold] whose closure
      performs a side effect (mutation or output).  Bucket order depends
      on the table's history and initial size, so effect order is not a
      function of the simulation: use {!Engine.Det.iter_sorted} /
      {!Engine.Det.fold_sorted} instead.  Pure, commutative folds are
      accepted.
    - [sema-raw-random]: any [Random.*] use — all randomness must flow
      through [Engine.Rng] streams derived from the experiment seed.
    - [sema-wall-clock]: [Unix.gettimeofday]/[Unix.time]/[Sys.time] —
      wall-clock reads bypass [Engine.Sim_time] and make runs
      irreproducible (benchmark harness timing is the one annotated
      exception).
    - [sema-adhoc-seed]: [Rng.create] applied to an integer literal — a
      constant seed buried in a component silently decouples it from the
      experiment seed; thread a seed parameter or split a parent stream.
    - [sema-wildcard-variant]: a wildcard or catch-all case in a [match]
      over the protocol variants ({!protocol_constructors}).  Adding a
      packet kind must be a compile error at every dispatch site, not a
      silent fall-through.

    {b Unit-safety passes}
    - [sema-time-boundary]: raw [Sim_time] nanosecond conversions
      ([to_ns]/[of_ns]/[span_ns]/[span_of_ns]) outside the conversion
      whitelist ({!time_boundary_whitelist}).  Components combine spans
      with the typed algebra; only designated leaf modules may cross into
      raw integers.
    - [sema-unit-mix]: [+]/[-]/[+.]/[-.] whose operands look (by
      identifier vocabulary) like a time quantity on one side and a
      byte/packet quantity on the other.

    Findings honour the shared suppression grammar of
    {!Analysis.Findings}, on the finding's line or the line above:

    {[ (* justification — lint: allow <rule> *) ]}

    and an unjustified marker is an [allow-empty] finding.

    The analyzer also builds a cross-module report (module dependency
    graph and exports never referenced outside their module) emitted as
    JSON for CI consumption; that part is informational and never fails
    the build. *)

type finding = Analysis.Lint.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}
(** The lexical finding record, shared with clove-lint; print it with
    {!Analysis.Lint.pp_finding}. *)

val rules : (string * string) list
(** [(rule_id, description)] for every implemented rule. *)

val protocol_constructors : string list
(** Constructor names of the wire-protocol variants ([Packet.payload],
    [Packet.kind], [Packet.ecn], [Packet.clove_feedback]).  Matches over
    these must be exhaustive without wildcards. *)

val time_boundary_whitelist : string list
(** Path prefixes allowed to use raw [Sim_time] nanosecond conversions:
    the time module itself ([lib/engine/]) and the two numeric-filter
    leaves that legitimately work on ns floats ([rtt_estimator], [dre]). *)

val analyze_source : file:string -> string -> finding list
(** Parse one [.ml] source and run every per-file pass, honouring
    suppression annotations.  A file that does not parse yields a single
    [sema-parse-error] finding.  Findings are in line order. *)

type module_info = {
  mi_file : string;
  mi_module : string;  (** capitalized module name, e.g. ["Vswitch"] *)
  mi_deps : string list;  (** scanned modules it references, sorted *)
}

val module_graph : (string * string) list -> module_info list
(** [(file, source)] pairs for every scanned [.ml] → per-module
    dependency summary, restricted to modules in the scanned set. *)

val unused_exports :
  ml_sources:(string * string) list ->
  mli_sources:(string * string) list ->
  (string * string * string) list
(** [(module, value, mli_file)] for every value exported by an interface
    but never referenced as [Module.value] from another scanned source.
    Informational: an export may be consumed by code outside the scan. *)

val report_json :
  findings:finding list ->
  graph:module_info list ->
  unused:(string * string * string) list ->
  files_analyzed:int ->
  Analysis.Json_out.t
(** The CI artifact: findings, rule table, call-graph and unused-export
    report as one JSON document. *)
