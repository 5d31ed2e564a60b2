(** Allocation extraction for clove-check: the hot region of the call graph — every
    function reachable from a scheduler dispatch root — and the
    cold-branch spans (audited-run gates, audited error paths,
    always-raising branches) that demote allocation findings to [alloc-cold].

    Allocation *sites* themselves are recorded per node during
    [Race_extract.analyze] (see {!Race_extract.alloc_site}); this
    module decides which nodes are hot and which lines are cold. *)

type hot = {
  h_roots : (string * string) list;  (** (node id, origin), sorted by id *)
  h_absent : string list;
      (** named per-event entry points that resolve to no node *)
  h_member : (string, unit) Hashtbl.t;
  h_parent : (string, string * Race_extract.site) Hashtbl.t;
      (** discovered node -> (caller, call site); roots absent *)
}

val member : hot -> string -> bool

val hot_region : Race_extract.linked -> hot
(** Deterministic BFS from the dispatch roots ([l_dispatch]) and the
    named per-event entry points present in the graph: roots sorted by
    id, edges in source order, parent pointers fixed at discovery. *)

val witness_to :
  hot -> string -> (string * Race_extract.site option) list option
(** The discovery chain root-first:
    [[(root, None); (n1, Some s1); ...; (id, Some sk)]] where each
    site is the call site in the previous element; [None] when the
    node is not hot. *)

(* oracle of test_alloc's hot-region monotonicity — lint: allow dead-export *)
val reachable : n:int -> roots:int list -> edges:(int * int) list -> bool array
(** Pure reachability on an integer graph; exposed for the qcheck
    property that membership is monotone under added edges. *)

(** {2 Cold branches} *)

type span = {
  sp_file : string;
  sp_start : int;
  sp_end : int;
  sp_reason : string;
}

val cold_spans : Cmt_load.unit_info list -> span list
(** Line spans off the steady-state path: branches under
    [Scheduler.audit] (or the [audit] field of a [Run_mode.t]),
    branches calling [Scheduler.record_violation], and branches that
    always raise. *)

val cold_reason : span list -> string -> int -> string option
(** First span covering (file, line), if any. *)
