(** One runner per figure of the paper's evaluation (Sections 5 and 6).

    Every runner returns a {!report}: a table whose rows mirror the series
    plotted in the paper (x = network load or fan-in, one column per
    scheme), plus the paper's headline claim for that figure so measured
    and published shapes can be compared side by side. *)

type report = {
  id : string;  (** "fig4b", "fig8a", ... *)
  title : string;
  paper_claim : string;
  table : Stats.Table.t;
}

val pp_report : Format.formatter -> report -> unit

val all : (string * (Sweep.run_opts -> report)) list
(** One runner per figure, keyed by id, in paper order: the testbed
    figures of Section 5 ([fig4b] ... [fig7]), the packet-level
    simulation figures of Section 6 ([fig8a], [fig8b], [fig9]) and the
    DESIGN.md ablations ([ablation-relay], [ablation-paths],
    [ablation-beta]).  Every runner sweeps with the given options except
    [fig7], whose incast preset is fixed. *)

val capture_ratio :
  ecmp:float -> clove:float -> conga:float -> float
(** Fraction of the ECMP-to-CONGA FCT gain captured by Clove (the paper's
    "captures 80%" metric). *)
