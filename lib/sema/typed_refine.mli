(** Typed refinement of the syntactic sema rules.

    When [.cmt]s are available, [sema-domain-parallel] findings whose
    only multicore mention on the line is a plain [Atomic.get] are
    dropped as benign reads.  (The former [sema-hotpath-alloc]
    refinements moved to [Alloc_extract]: clove-check replaced that
    syntactic rule with call-graph reachability.) *)

type t = {
  r_benign_par : (string * int, unit) Hashtbl.t;
  r_other_par : (string * int, unit) Hashtbl.t;
}

val of_units : Cmt_load.unit_info list -> t

val refine : t -> Rules.finding list -> Rules.finding list * Rules.finding list
(** [(kept, dropped)]. *)
