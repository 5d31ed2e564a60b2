(** Extension experiments beyond the paper's figures, covering Section 7's
    discussion items and the design ablations DESIGN.md calls out:

    - [ext-fattree]: Clove on a 3-tier k-ary fat-tree (the "works on any
      topology" claim) with a degraded core link;
    - [ext-failure]: a fabric link fails mid-run; watch FCT recover as
      routing reconverges and traceroute remaps the ports;
    - [ext-dctcp]: Clove-ECN with DCTCP guest stacks (Section 7);
    - [ext-variants]: Clove-Latency, adaptive flowlet gap, receiver
      reordering, non-overlay rewrite mode, and LetFlow side by side;
    - [ext-datamining]: the heavier-tailed data-mining workload;
    - [ext-chaos] (see {!Chaos}): a deterministic fault plan executed
      against each scheme, scored for resilience. *)

val all : (string * (Sweep.run_opts -> Figures.report)) list
(** Extension experiments keyed by id (ext-...); [ext-failure] runs one
    seed at 25x the options' jobs per connection. *)
