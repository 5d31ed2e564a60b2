(** One runner per figure of the paper's evaluation (Sections 5 and 6).

    Every runner returns a {!report}: a table whose rows mirror the series
    plotted in the paper (x = network load or fan-in, one column per
    scheme), plus the paper's headline claim for that figure so measured
    and published shapes can be compared side by side.  Every websearch
    load figure, the ablations and the load-grid extensions are one
    {!load_sweep} call over a list of cases; fig9 reads its three points
    through {!Sweep.websearch_points} directly, and fig7 runs the incast
    driver. *)

type report = {
  id : string;  (** "fig4b", "fig8a", ... *)
  title : string;
  paper_claim : string;
  table : Stats.Table.t;
}

val pp_report : Format.formatter -> report -> unit

val load_sweep :
  id:string ->
  title:string ->
  paper_claim:string ->
  cases:(string * Scenario.scheme * Scenario.params) list ->
  loads:float list ->
  metric:(Workload.Fct_stats.t -> float) ->
  metric_name:string ->
  opts:Sweep.run_opts ->
  report
(** The (case x load) grid: every (scheme, params) case at every load,
    fetched in one {!Sweep.websearch_points} call (memoized, fanned
    across domains).  The table has one row per load, labelled with the
    load in percent, and one column per case, headed by its label under
    ["load%/<metric_name>"]; each cell is [metric] of that point's FCTs
    merged over [opts.seeds]. *)

val all : (string * (Sweep.run_opts -> report)) list
(** One runner per figure, keyed by id, in paper order: the testbed
    figures of Section 5 ([fig4b] ... [fig7]), the packet-level
    simulation figures of Section 6 ([fig8a], [fig8b], [fig9]) and the
    DESIGN.md ablations ([ablation-relay], [ablation-paths],
    [ablation-beta]).  Every runner sweeps with the given options except
    [fig7], whose incast preset is fixed: it takes only their mode. *)
