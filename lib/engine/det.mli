(** Deterministic hashtable access.

    [Hashtbl.iter]/[fold] visit entries in bucket order, which depends on
    the table's bucket count and insertion history — state that must
    never leak into path selection, weight updates or any other
    simulator-visible behaviour.  Two rules keep it out:

    - create simulator-state tables with {!create}, so the
      schedule-perturbation sanitizer ([Analysis.Perturb]) can vary
      bucket counts between runs and expose any leak dynamically;
    - iterate with the [_sorted] helpers whenever the closure writes
      mutable state or its visit order is otherwise observable.  A plain
      [Hashtbl.fold] with a pure, commutative closure (counting, or
      collect-then-sort) is fine and clove-check's
      [sema-hashtbl-order] rule accepts it.

    The helpers take an explicit typed [compare] (keys here are ints,
    pairs or strings; polymorphic compare is linted against). *)

val create : int -> ('k, 'v) Hashtbl.t
(** [Hashtbl.create] with the initial size perturbed by the salt of
    [Analysis.Perturb.set_tbl_size_salt] (identity when the salt is 0). *)

val iter_sorted :
  compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit

val fold_sorted :
  compare:('k -> 'k -> int) ->
  ('k -> 'v -> 'a -> 'a) ->
  ('k, 'v) Hashtbl.t ->
  'a ->
  'a
