(* The race analysis's effect lattice.

   Each function gets a mutation footprint drawn from a five-point
   chain.  The order is "how far the mutated state can be seen from a
   concurrently running domain": mutating your own locals is invisible,
   mutating caller-provided arguments is visible exactly when the
   caller shares the argument, mutating captured enclosing-scope state
   is visible to every invocation of the closure, and mutating
   module-level state is visible to everyone.

     Pure < Local_mut < Param_mut < Captured_mut < Shared_mut

   Protection is orthogonal: a mutation performed through [Atomic.*],
   under a [Mutex], or on [Domain.DLS] state never contributes to the
   unprotected footprint (it is recorded separately for the report). *)

type cls = Pure | Local_mut | Param_mut | Captured_mut | Shared_mut

let rank = function
  | Pure -> 0
  | Local_mut -> 1
  | Param_mut -> 2
  | Captured_mut -> 3
  | Shared_mut -> 4

let cls_name = function
  | Pure -> "pure"
  | Local_mut -> "local-mut"
  | Param_mut -> "param-mut"
  | Captured_mut -> "captured-mut"
  | Shared_mut -> "shared-mut"

let join a b = if rank a >= rank b then a else b
let leq a b = rank a <= rank b

(* How a mutation is disciplined.  [Lock] is coarse: a function that
   takes a mutex anywhere has all its own mutations classified as
   lock-protected (see DESIGN.md §11 for why this is acceptable for
   this codebase's two lock sites). *)
type protection = Unprotected | P_atomic | P_lock | P_dls

let protection_name = function
  | Unprotected -> "unprotected"
  | P_atomic -> "atomic"
  | P_lock -> "lock"
  | P_dls -> "dls"

(* Classification of the root of an expression: what does the mutated
   (or passed) value reach back to? *)
type arg_class =
  | A_global of string  (** module-level state, qualified name *)
  | A_captured of string  (** captured from an enclosing function *)
  | A_param of string
      (** a parameter of the current function, by [Ident.unique_name];
          [""] when the identity is unknown *)
  | A_local  (** created inside the current function *)

let arg_class_name = function
  | A_global g -> "global:" ^ g
  | A_captured v -> "captured:" ^ v
  | A_param "" -> "param"
  | A_param u -> "param:" ^ u
  | A_local -> "local"

(* Footprint contributed by one call site: the callee mutates
   [callee]-visible state; [arg] is the worst-rooted argument the
   caller passes.  A callee that mutates its own locals contributes
   nothing; a callee that mutates module state contributes Shared_mut
   whatever is passed; a callee that mutates its parameters mutates
   whatever the caller handed it. *)
let translate ~callee (arg : arg_class) =
  let by_arg =
    match arg with
    | A_global _ -> Shared_mut
    | A_captured _ -> Captured_mut
    | A_param _ -> Param_mut
    | A_local -> Local_mut
  in
  match callee with
  | Pure | Local_mut -> Pure
  | Shared_mut -> Shared_mut
  | Captured_mut ->
    (* the callee's class is a join over its mutation targets: a
       captured target contributes Captured_mut whatever the caller
       passes (the caller cannot localize it by argument choice), but
       the join may also hide parameter targets, so the by-argument
       translation must be covered too — otherwise raising a callee
       from Param_mut to Captured_mut could *lower* the contribution
       through an A_global argument, breaking monotonicity *)
    join Captured_mut by_arg
  | Param_mut -> by_arg

let cls_of_arg = function
  | A_global _ -> Shared_mut
  | A_captured _ -> Captured_mut
  | A_param _ -> Param_mut
  | A_local -> Local_mut

(* ------------------------ abstract solver ------------------------- *)

(* Pure fixpoint over an abstract call graph, used by the analyzer and
   directly property-tested (monotonicity under adding calls).  Node
   [i] has an intrinsic footprint [own.(i)] (its direct mutation
   sites) and calls [calls i = [(callee, worst_arg); ...]].  The
   solution is the least fixpoint of

     fp(i) = own(i) ⊔ ⊔ { translate (fp j) arg | (j, arg) ∈ calls i }

   which exists because [translate] is monotone in [callee] and the
   chain is finite. *)
let solve ~nodes ~own ~calls =
  let fp = Array.init nodes own in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to nodes - 1 do
      List.iter
        (fun (j, arg) ->
          if j >= 0 && j < nodes then begin
            let c = join fp.(i) (translate ~callee:fp.(j) arg) in
            if c <> fp.(i) then begin
              fp.(i) <- c;
              changed := true
            end
          end)
        (calls i)
    done
  done;
  fp
