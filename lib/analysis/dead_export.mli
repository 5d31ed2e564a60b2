(** The typed unused-export pass of clove-check.

    An export is a top-level [val] in the [.cmti] of an in-scope
    interface.  A use is a resolved [Texp_ident] path in any loaded
    implementation other than the exporting unit itself.  Both sides are
    compared on (short module, value), with the library wrapper removed,
    so [Engine.Sim_time.(>=)], [Engine__Sim_time.(>=)] and a
    [Sim_time.(now >= t)] local open are one use, and a type that shares
    a value's name is never mistaken for it.  Module aliases
    ([module S = Sim_time], constrained or not) are followed through
    {!Cmt_load.resolve}.  A module used whole — a
    functor argument, a signature coercion, an [include], a
    [(module M)] — counts every one of its values as used.

    Implementations under [test/] (suites and seeded fixtures) are
    consumers only when they are themselves in scope, so an export that
    only tests read is dead. *)

val findings :
  scope:string list ->
  Cmt_load.unit_info list ->
  Cmt_load.intf_info list ->
  Findings.t list
(** [findings ~scope units intfs]: one [dead-export] finding per export
    of an in-scope interface that no other unit in [units] uses; [file]
    is the [.mli], [line] the [val], [target] ["Module.value"].
    Unsuppressed and unsorted. *)
