(** LetFlow (Vanini et al., NSDI '17) — flowlet switching inside the ToR
    switch, with each new flowlet hashed to a uniformly random next hop.

    The paper discusses LetFlow as the in-switch sibling of Edge-Flowlet
    (Section 8): congestion-oblivious flowlet routing that adapts to
    asymmetry through the flowlet-size feedback loop, but requires new
    switch hardware where Edge-Flowlet needs only the hypervisor.  It is
    included as an extension baseline. *)

type t

val install : ?flowlet_gap:Sim_time.span -> rng:Rng.t -> Fabric.t -> t
(** Install flowlet pickers on every switch with multiple candidate next
    hops; each switch draws from a named substream of [rng] keyed on its
    id, so installation order never shifts another switch's picks.
    Default gap: 500 us, as in the LetFlow paper's switch
    implementation. *)
