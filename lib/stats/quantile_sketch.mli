(** Deterministic, mergeable quantile sketch (q-digest) over the integer
    universe [0, 2^u_bits).

    O(k) memory whatever the stream length, no randomness anywhere, and
    {!merge} is nodewise integer addition — so per-shard sketches
    combine into exactly the sketch a serial run would hold, in any
    merge order.

    Rank-error guarantee: a value reported by {!quantile}[ t q] has true
    rank within [epsilon * n] of [q * n], where
    [epsilon = u_bits / k] ({!rank_error}; under 1% with the defaults
    [k = 4096], [u_bits = 40]).  Values themselves are never
    interpolated: the sketch reports the upper bound of a stored tree
    node, so the result is always at most the universe maximum. *)

type t

val create : ?k:int -> ?u_bits:int -> unit -> t
(** [k] is the compression factor (node budget is [3k]); [u_bits] the
    log2 of the value universe.  Defaults: [k = 4096], [u_bits = 40] —
    about 1% guaranteed rank error over a 2^40 universe (18 minutes at
    nanosecond resolution). *)

val add : ?weight:int -> t -> int -> unit
(** Insert a value (clamped into the universe) with optional positive
    weight.  Amortized O(log k) plus a periodic O(k log k) compression. *)

val count : t -> int
(** Total inserted weight. *)

val nodes : t -> int
(** Surviving digest nodes — bounded by [3k + 1] after compression;
    exposed so tests can assert the memory bound. *)

val rank_error : t -> float
(** The guaranteed rank-error fraction [u_bits / k]. *)

val quantile : t -> float -> int
(** [quantile t q] with [q] in [0, 1]: a value whose true rank is within
    [rank_error t * count t] of [q * count t].  Raises
    [Invalid_argument] on an empty sketch. *)

val merge : t -> t -> t
(** Fresh sketch holding both arguments' weight. *)
