(** The race analysis of clove-check: the witness-carrying footprint
    fixpoint and root analysis over the linked call graph.

    Rules: [race-shared-mut] (module-level state mutated by a
    domain-parallel task without atomic/lock/DLS discipline) and
    [race-captured-mut] (same for closure-captured state).  Finding
    identity is ("race-<kind>", file of the mutation site, target,
    e.g. ["Sweep.memo"] or ["capture memo"]); each finding's
    witness is the call chain root first, and its ["roots"] extra field
    lists every parallel root that reaches it, sorted. *)

type t = {
  r_findings : Findings.t list;  (** unsuppressed, sorted *)
  r_roots : (string * Race_extract.site) list;
      (** (root node id, spawn site), sorted *)
  r_mutations : int;  (** mutation sites in the graph *)
  r_protected : int;  (** of which atomic-, lock- or DLS-protected *)
}

val run : Race_extract.linked -> t
(** Solve the footprints and report every shared or captured target
    mutated from a parallel root.  Reads no source: suppressions are
    applied by {!Findings.suppress}. *)

val summary_json : t -> Json_out.t
(** Roots and mutation-site counts for the report. *)

