(** The race analysis's effect lattice and its fixpoint solver.

    Footprints live on a five-point chain ordered by "how visible the
    mutated state is from another domain":

    {[ Pure < Local_mut < Param_mut < Captured_mut < Shared_mut ]}

    - [Local_mut]: mutates state created inside the function — safe
      under domain parallelism.
    - [Param_mut]: mutates caller-provided arguments — safe exactly
      when every reachable caller passes domain-private state.
    - [Captured_mut]: mutates state captured from an enclosing scope —
      shared across every invocation of the closure.
    - [Shared_mut]: mutates module-level state — shared, full stop.

    Protection ([Atomic.*], mutex discipline, [Domain.DLS]) is tracked
    orthogonally; protected mutations never enter the unprotected
    footprint. *)

type cls = Pure | Local_mut | Param_mut | Captured_mut | Shared_mut

val rank : cls -> int
val cls_name : cls -> string
val join : cls -> cls -> cls
val leq : cls -> cls -> bool

type protection = Unprotected | P_atomic | P_lock | P_dls

val protection_name : protection -> string

type arg_class =
  | A_global of string
  | A_captured of string
  | A_param of string
      (** the parameter's [Ident.unique_name]; [""] when unknown *)
  | A_local

val arg_class_name : arg_class -> string

val translate : callee:cls -> arg_class -> cls
(** Footprint a call site contributes to the caller: the callee's
    footprint re-rooted through the worst argument the caller passes.
    Monotone in [callee] for every fixed argument class. *)

val cls_of_arg : arg_class -> cls
(** The footprint of mutating a value with the given root directly. *)

val solve :
  nodes:int ->
  own:(int -> cls) ->
  calls:(int -> (int * arg_class) list) ->
  cls array
(** Least fixpoint of the footprint equations over an abstract call
    graph.  [own i] is node [i]'s intrinsic footprint, [calls i] its
    call sites as [(callee, worst_arg)].  Out-of-range callees are
    ignored.  Adding a call (or raising any [own]) can only raise the
    solution pointwise — the monotonicity property the qcheck suite
    exercises. *)
