(** The allocation analysis of clove-check: hot-region allocation
    findings with a call-chain witness from their dispatch root, and
    [alloc-cold] demotion for cold-guarded sites.

    Finding identity is ("alloc-<kind>", file, "node: desc") —
    line-free; a new identity is a new hot-path allocation and exits
    1 in the driver.  Several sites with one identity merge into one
    finding carrying the first site's line and a ["count"]. *)

type t = {
  a_findings : Analysis.Findings.t list;
      (** sorted; only [alloc-cold] findings carry a reason *)
  a_roots : (string * string) list;  (** (node id, origin), sorted *)
  a_hot_nodes : int;
  a_sites_total : int;  (** allocation sites in hot nodes, pre-merge *)
  a_sites_cold : int;
}

val run : cold:Alloc_extract.span list -> Race_extract.linked -> t
(** Compute the hot region and assemble the findings, demoting sites
    inside a [cold] span ({!Alloc_extract.cold_spans}).  Reads no
    source: suppressions are applied by {!Analysis.Findings.suppress}. *)

val summary_json : t -> Analysis.Json_out.t
(** Roots, hot-region size and site counts for the report. *)

val rules : (string * string) list
(** [(rule_id, description)] for the SARIF rule table. *)
