(** Extension experiments beyond the paper's figures, covering Section 7's
    discussion items and the design ablations DESIGN.md calls out:

    - [ext-fattree]: Clove on {!Scenario}'s 3-tier Clos laid out as the
      k = 4 fat-tree graph (the "works on any topology" claim) with one
      leaf-spine link down;
    - [ext-failure]: a fabric link fails mid-run ({!Chaos.simulate});
      watch FCT recover as routing reconverges and traceroute remaps the
      ports;
    - [ext-dctcp]: Clove-ECN with DCTCP guest stacks (Section 7);
    - [ext-variants]: Clove-Latency, adaptive flowlet gap, receiver
      reordering, non-overlay rewrite mode, and LetFlow side by side;
    - [ext-datamining]: the heavier-tailed data-mining workload;
    - [ext-chaos] (see {!Chaos}): a deterministic fault plan executed
      against each scheme, scored for resilience. *)

val all : (string * (Sweep.run_opts -> Figures.report)) list
(** Extension experiments keyed by id (ext-...).  The load-grid ones
    ([ext-fattree], [ext-dctcp], [ext-variants], [ext-datamining]) are
    {!Figures.load_sweep} calls; [ext-failure] runs one seed at 25x the
    options' jobs per connection. *)

val determinism_rows : (string * (Run_mode.t -> string)) list
(** The [clove-sim determinism] matrix's rows, named digests of a run in
    a given mode:
    every experiment id, the MD5 of its report as [exp -q] prints it;
    [chaos], [clove-sim chaos]'s default run; [chaos-int-latency], the
    same run of Clove-INT and Clove-Latency at 120 jobs (the sample picker
    with failure recovery on); [chaos-vedge], the default run under
    {!Chaos.vedge_spec} at 120 jobs; and [chaos3-<preset>] per
    {!Chaos.preset_names} (pods 2, load 0.15, 120 jobs, CAFT, ECMP and
    Clove-ECN).  A chaos row is the MD5 of {!Chaos.pp_rows}. *)
