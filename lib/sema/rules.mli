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
      over the protocol variants ([Packet.payload], [Packet.kind],
      [Packet.ecn], [Packet.clove_feedback]).  Adding a packet kind must
      be a compile error at every dispatch site, not a silent
      fall-through.

    {b Unit-safety passes}
    - [sema-time-boundary]: raw [Sim_time] nanosecond conversions
      ([to_ns]/[of_ns]/[span_ns]/[span_of_ns]) outside the conversion
      whitelist ([lib/engine/], [rtt_estimator], [dre]).  Components
      combine spans with the typed algebra; only designated leaf modules
      may cross into raw integers.
    - [sema-unit-mix]: [+]/[-]/[+.]/[-.] whose operands look (by
      identifier vocabulary) like a time quantity on one side and a
      byte/packet quantity on the other.

    Findings honour the shared suppression grammar of
    {!Analysis.Findings}, on the finding's line or the line above:

    {[ (* justification — lint: allow <rule> *) ]}

    and an unjustified marker is an [allow-empty] finding.  Unused
    exports are clove-check's typed [dead-export] pass
    ({!Dead_export}). *)

type finding = Analysis.Lint.finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
}
(** The lexical finding record, shared with clove-lint; print it with
    {!Analysis.Lint.pp_finding}. *)

val analyze_source : file:string -> string -> finding list
(** Parse one [.ml] source and run every per-file pass, honouring
    suppression annotations.  A file that does not parse yields a single
    [sema-parse-error] finding.  Findings are in line order. *)

val report_json :
  findings:finding list -> files_analyzed:int -> Analysis.Json_out.t
(** The CI artifact: findings and rule table as one JSON document. *)
