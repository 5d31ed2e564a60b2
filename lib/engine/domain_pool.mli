(** Bounded work-stealing pool over OCaml 5 domains.

    The parallel experiment engine: a batch of independent tasks is
    fanned across worker domains, each stealing the next unclaimed task
    index from a shared atomic counter.  Results are returned {e by task
    index, not completion order}, so a 1-domain and an N-domain run of
    the same batch observe identical result sequences — the foundation of
    the sweep engine's determinism-under-parallelism guarantee.

    Tasks must be independent: they may not share mutable simulator
    state.  Each run carries its own {!Run_mode.t}, and its auditor's
    state lives in its own schedulers and components, so audited and
    perturbed runs fan out like any other. *)

type t

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 (1 spawns no
    domain): the width when [?domains] is omitted, and {!Run_mode.default}'s. *)

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains - 1] workers (the submitting domain itself
    is the remaining member).  [domains] defaults to
    {!default_domains}. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] runs [f xs.(i)] for every [i] across the pool and
    returns the results in index order.  If any task raised, the first
    exception (in completion order) is re-raised after the whole batch
    has drained.  Must be called from one domain at a time — batches are
    not re-entrant. *)

val shutdown : t -> unit
(** Join all workers.  The pool must not be used afterwards. *)

val run : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** One-shot convenience: [create], {!map}, [shutdown].  With
    [domains = 1] (or a 0/1-element input) no domain is spawned and the
    map runs serially in the caller. *)
