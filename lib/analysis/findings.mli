(** Shared findings layer of the static analyzers: one finding record,
    sorted deterministic serialization, committed-baseline
    load/diff for clove-check, and the one suppression grammar every
    rule id answers to. *)

type t = {
  rule : string;
  file : string;
  line : int;
  target : string;  (** stable identity within the file, line-free *)
  message : string;
  witness : string list;  (** rendered chain, root first; [[]] = none *)
  extra : (string * Json_out.t) list;  (** tool-specific JSON fields *)
  reason : string option;  (** suppression justification; [None] = active *)
}

val key : t -> string
(** Baseline identity: ["rule|file|target"].  Line numbers are
    deliberately excluded so unrelated edits do not churn committed
    baselines. *)

val is_active : t -> bool
(** Not suppressed by a justified allow-comment. *)

val sort : t list -> t list
(** By (file, line, rule, target) — the one artifact order. *)

(** {2 Suppressions}

    The one suppression grammar of every rule id, on the flagged line
    or the line above:

    {[ (* why the finding is acceptable — lint: allow <rule-id> *) ]}

    and, for a whole file, [lint: allow-file <rule-id>] anywhere in it.
    Several comma-separated rule ids may follow the keyword.  The
    justification is the rest of the comment text on the marker's line,
    before or after the marker, and must contain a letter. *)

type marker = {
  m_line : int;  (** 1-based *)
  m_file_scope : bool;  (** the [allow-file] form *)
  m_rules : string list;
  m_reason : string;  (** the justification, separators stripped *)
}

val markers : string -> marker list
(** Every marker in a source text, in line order. *)

val allowed : marker list -> rule:string -> line:int -> string option
(** The justification of the first justified marker that suppresses
    [rule] at [line]; [None] when the finding stands.  An unjustified
    marker suppresses nothing. *)

val allow_empty : marker list -> (int * string) list
(** [(line, message)] for every unjustified marker: each is one
    [allow-empty] finding, whatever the tool. *)

val suppress : source_root:string -> files:string list -> t list -> t list
(** Apply the markers of each finding's source file (paths relative to
    [source_root]) to every finding not already carrying a reason, and
    add the [allow-empty] findings of every file in [files]; sorted. *)

(** {2 Baseline} *)

val baseline_json : tool:string -> t list -> Json_out.t
(** Baseline file content: the active findings' identity keys. *)

val load_baseline : string -> ((string, unit) Hashtbl.t, string) result
(** Keys of a committed baseline; [Error] on parse trouble so CI fails
    loudly rather than treating everything as new. *)

val new_findings : t list -> (string, unit) Hashtbl.t -> t list
(** Active findings whose identity key is not in the baseline. *)

val key_table : t list -> (string, unit) Hashtbl.t

(** {2 Output} *)

val findings_json : new_keys:(string, unit) Hashtbl.t -> t list -> Json_out.t
