(** clove-check's determinism and unit-safety rules ([sema-*]) and its
    code rules ([obj-magic], [poly-compare], [bare-ignore],
    [hashtbl-find], [float-eq]): one typedtree walk per unit.  Names are
    resolved paths, so a [Stdlib.]-qualified use, a module alias or a
    local [open] is seen and a shadowing local definition is not.  A
    closure's effects are the race analysis's mutators
    ({!Race_extract.classify_mutator}), field assignment and output; a
    protocol match is one whose scrutinee has a [Packet] protocol type
    ([payload], [tcp_kind], [ecn], [clove_feedback]).  The path lists
    ([lib/faults/], [lib/], the conversion and parallel whitelists) match
    at the start of a source path or right after a [/], so a fixture tree
    mirroring [lib/faults/] is held to the same rule.  [poly-compare]
    flags [Stdlib.compare] everywhere and, under [lib/], [min]/[max] and
    a comparison or [Hashtbl.hash] that ocamlopt compiles to the generic
    structural one.  [bare-ignore] flags [ignore] (also through [|>] or
    [@@]) applied to anything but a variable; [float-eq] flags [=]/[<>]
    with a float-literal operand.  DESIGN.md §11 tabulates the rules. *)

(* test_sema's fixture case requires every rule id — lint: allow dead-export *)
val rules : (string * string) list
(** [(rule_id, description)]: the fourteen rules, for the finding messages. *)

val findings : Cmt_load.unit_info list -> Findings.t list
(** Every finding of the rules, unit by unit in walk order, unsuppressed
    (the caller applies {!Findings.suppress}).  The target is
    the enclosing top-level binding, e.g. ["Link.on_txdone"]. *)
