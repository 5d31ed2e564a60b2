(** Typedtree extraction for clove-check: per-function mutation
    footprints, a whole-library call graph, and the domain-parallel
    roots, all read from [.cmt] files.

    Closure literals are inlined into the creating function's node —
    a closure handed to the scheduler runs in the creating task's
    domain — except closures passed directly to a parallel entry
    point, which become their own root nodes.  See DESIGN.md §11 for
    the soundness envelope. *)

type site = { s_file : string; s_line : int }

(** Allocation sites, recorded during the same walk and attributed to
    the node whose body performs them.  [K_partial] and [K_float] are
    deliberate over-approximations (a partial application always
    allocates; a float-returning call boxes unless locally unboxed).
    A generic compare or hash allocates nothing and is
    {!Det_rules}'s [poly-compare], not an allocation kind. *)
type alloc_kind =
  | K_closure
  | K_partial
  | K_tuple
  | K_record
  | K_variant
  | K_option
  | K_cons
  | K_float
  | K_array
  | K_string
  | K_format
  | K_ref

val alloc_kind_slug : alloc_kind -> string
(** Stable short name, e.g. ["closure"], ["boxed-float"]; used in rule
    ids ["alloc-<slug>"] and the per-kind report rollup. *)

type alloc_site = { al_kind : alloc_kind; al_desc : string; al_site : site }

val suffix2 : Path.t -> (string * string) option
(** Last (module, value) pair with the module stripped of dune
    wrapping: [Engine__Int_table.set] → [("Int_table", "set")]. *)

val classify_mutator :
  string * string -> (string * Race_lattice.protection * int) option
(** [Some (primitive, protection, target)] when the call {!suffix2} names
    mutates its [target]-th positional argument: the one table of
    mutating primitives, shared with {!Det_rules}. *)

val is_constant_constructor : Typedtree.expression -> bool
(** [[]], [None], [Ce]: a constructor without arguments, an immediate
    at run time.  A block of such constants is static data, and
    ocamlopt compiles [=]/[<>] against one to an integer compare. *)

type effect_site = {
  ef_target : Race_lattice.arg_class;  (** root of the mutated value *)
  ef_prim : string;  (** e.g. ["Hashtbl.replace"], [":="], ["count <-"] *)
  ef_prot : Race_lattice.protection;
  ef_site : site;
}

type callee_ref =
  | C_stamp of string  (** same-unit ident, keyed by [Ident.unique_name] *)
  | C_name of string * string  (** (short module, value) *)
  | C_node of string  (** already-resolved node id (spawned closures) *)

type call_site = {
  cs_callee : callee_ref;
  cs_args : (Asttypes.arg_label * Race_lattice.arg_class) list;
  cs_site : site;
}

type node = {
  n_id : string;  (** e.g. ["Sweep.run_point"], ["Chaos.run.<task@216>"] *)
  n_site : site;
  n_is_init : bool;  (** module-initialization pseudo-node *)
  mutable n_effects : effect_site list;
  mutable n_calls : call_site list;
  mutable n_takes_lock : bool;
  mutable n_allocs : alloc_site list;  (** reverse source order *)
  mutable n_param_order : (Asttypes.arg_label * string list) list;
      (** outer [fun]-chain parameters in application order; each entry
          is the label plus the unique names its pattern binds *)
  n_params : (string, unit) Hashtbl.t;
      (** every parameter bound anywhere in this node, by unique name *)
  n_locals : (string, unit) Hashtbl.t;  (** likewise for let-bound locals *)
}

type linked_call = {
  lc_callee : string;  (** resolved node id *)
  lc_args : (Asttypes.arg_label * Race_lattice.arg_class) list;
      (** every argument's root, with its label, in application order *)
  lc_site : site;
}

type linked = {
  l_nodes : node list;  (** sorted by id *)
  l_calls : (string, linked_call list) Hashtbl.t;
      (** node id -> resolved calls, in source order *)
  l_roots : (string * site) list;  (** (root node id, spawn site), sorted *)
  l_dispatch : (string * site) list;
      (** scheduler dispatch-kind handlers ([Scheduler.register_kind]):
          (handler node id, registration site), sorted.  Closure
          handlers become their own nodes with a call edge from the
          registering function; named handlers resolve to their node. *)
  l_files : string list;  (** source files analyzed, sorted *)
}

val analyze : Cmt_load.unit_info list -> linked
(** Extract every unit, then resolve call edges (same-unit idents by
    stamp, cross-module by (module, value) name) and parallel-entry
    roots.  Unresolvable edges — calls through parameters or stored
    closures — are dropped. *)
