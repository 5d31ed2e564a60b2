(** Flow-completion-time bookkeeping.

    FCT is measured from job arrival (submission on the persistent
    connection) to acknowledgement of the last byte, so it includes the
    connection-queueing delay — this matches the paper's job-completion-
    time methodology and explains the multi-second averages at high load. *)

type t

val create : unit -> t
(** An empty sink.  Every record is stored: the records are the input of
    {!canonical_dump}, the digest every determinism gate compares. *)

val record : t -> size:int -> start:Sim_time.t -> finish:Sim_time.t -> unit
val count : t -> int

val last_finish : t -> Sim_time.t
(** The latest completion instant recorded; {!Sim_time.zero} if none. *)

val avg : ?min_size:int -> ?max_size:int -> t -> float
(** Mean FCT in seconds of flows with [min_size <= size < max_size];
    [nan] if no flows match. *)

val percentile : ?min_size:int -> ?max_size:int -> t -> float -> float
(** FCT percentile in seconds over the same size filter. *)

val merge : t -> t -> t
(** O(|a| + |b|) array concatenation (fold order matches the historical
    list [a @ b]). *)

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
