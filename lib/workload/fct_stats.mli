(** Flow-completion-time bookkeeping.

    FCT is measured from job arrival (submission on the persistent
    connection) to acknowledgement of the last byte, so it includes the
    connection-queueing delay — this matches the paper's job-completion-
    time methodology and explains the multi-second averages at high load. *)

type t

val create : ?stream:bool -> unit -> t
(** Exact mode (the default, and the digest gate) stores every record; a
    [~stream:true] sink instead keeps O(1) state — counts, float sums
    and a deterministic mergeable {!Stats.Quantile_sketch} of FCTs per
    size class (all / mice / elephants) — so memory stays flat whatever
    the flow count.  In streaming mode only {!record}, {!count},
    {!avg}, {!percentile}, {!total_bytes} and {!merge} are available,
    and the size filters are restricted to the paper's slices
    ([min_size]/[max_size] omitted, [max_size = mice_cutoff], or
    [min_size = elephant_cutoff]); everything else raises
    [Invalid_argument].  Streaming percentiles carry the sketch's
    guaranteed rank error (under 1%) instead of being exact. *)

val is_streaming : t -> bool
val record : t -> size:int -> start:Sim_time.t -> finish:Sim_time.t -> unit
val count : t -> int

val summary :
  ?min_size:int -> ?max_size:int -> t -> Stats.Summary.t
(** FCTs in seconds of flows with [min_size <= size < max_size]. *)

val avg : ?min_size:int -> ?max_size:int -> t -> float
(** Mean FCT in seconds; [nan] if no flows match. *)

val percentile : ?min_size:int -> ?max_size:int -> t -> float -> float
val cdf : ?min_size:int -> ?max_size:int -> t -> Stats.Cdf.t

val merge : t -> t -> t
(** O(|a| + |b|) array concatenation in exact mode (fold order matches
    the historical list [a @ b]); sketch/sum merging in streaming mode.
    Mixing modes raises [Invalid_argument]. *)

val filter_size : ?min_size:int -> ?max_size:int -> t -> t
(** Records of flows with [min_size <= size < max_size] as a new [t] —
    lets {!window} and {!timeline} run on the mice-only slice whose FCT
    tracks congestion without elephant-sampling noise. *)

val window : from:float -> until:float -> t -> t
(** Records of flows {e arriving} in [\[from, until)] seconds — the
    chaos scorecard's pre-fault / fault-window / post-recovery slices. *)

val total_bytes : t -> int
(** Sum of recorded flow sizes (goodput accounting). *)

val completed_bytes_in : from:float -> until:float -> t -> int
(** Bytes of flows {e completing} within [\[from, until)] seconds — the
    delivered-goodput side of the chaos scorecard. *)

val timeline : t -> bucket_sec:float -> (float * Stats.Summary.t) list
(** FCT summaries bucketed by job *arrival* time — used to watch a scheme
    adapt to a mid-run link failure.  Returns (bucket start, summary) in
    time order. *)

val canonicalize : t -> unit
(** Reorder the stored records into {!canonical_dump}'s sorted order.
    Recording order is a scheduling artifact — it differs across PDES
    shard counts — and order-sensitive folds ({!avg} accumulates floats
    in list order) would otherwise leak it into reported numbers.
    Scenario runs canonicalize at every width, including serial, so all
    widths fold in the same order. *)

val canonical_dump : t -> string
(** A canonical textual dump of every record (size, arrival, FCT as hex
    floats), sorted so the result is invariant to completion order.  Two
    runs are behaviorally identical iff their dumps are byte-identical —
    the digest input for the schedule-perturbation sanitizer. *)

val mice_cutoff : int
(** 100 KB — the paper's "<100KB" mice bucket. *)

val elephant_cutoff : int
(** 10 MB — the paper's ">10MB" bucket. *)

val stream_sketch_nodes : t -> int
(** Node count of the streaming all-flows sketch (memory bound witness);
    raises [Invalid_argument] in exact mode. *)

val stream_rank_error : t -> float
(** Guaranteed rank-error fraction of streaming percentiles; raises
    [Invalid_argument] in exact mode. *)
