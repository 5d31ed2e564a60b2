(** The client–server RPC workload of Sections 5–6.

    Each connection is a persistent transport session from a client to a
    randomly chosen server.  Jobs (flows) arrive on each connection as a
    Poisson process whose rate is tuned so the aggregate offered load is
    the requested fraction of the bisection bandwidth; sizes are drawn from
    an empirical CDF.  Jobs on one connection are served FIFO (the byte
    stream of the persistent connection), so FCT includes queueing delay
    behind earlier jobs, as in the paper.

    The driver is transport-agnostic: the caller supplies one submit
    function per connection (plain TCP or MPTCP). *)

type config = {
  load : float;  (** offered load as a fraction of [bisection_bps] *)
  bisection_bps : float;
  jobs_per_conn : int;
  size_dist : Stats.Cdf.t;
  start_at : Sim_time.span;  (** warmup before the first arrival *)
}

type submit = bytes:int -> on_complete:(unit -> unit) -> unit

val check_load : float -> (unit, string) result
(** [Ok ()] when the offered load is in the accepted range, (0, 2];
    otherwise an error naming the value and the range.  {!arm} raises
    [Invalid_argument] on a config that fails it. *)

val arm :
  sched_of_conn:(int -> Scheduler.t) ->
  stats_of_conn:(int -> Fct_stats.t) ->
  remaining_of_conn:(int -> int ref) ->
  rng:Rng.t ->
  conns:submit array ->
  config ->
  unit
(** Arm every connection's arrival process without driving anything —
    the caller owns the drive loop (the PDES shard coordinator, or
    {!run}'s serial loop).  Connection [i] schedules exclusively on
    [sched_of_conn i], records FCTs into [stats_of_conn i] and
    decrements [remaining_of_conn i] on completion; in a sharded build
    these are the connection's shard scheduler and a shard-private sink,
    so job accounting involves no cross-shard mutation.  The per-
    connection rng substreams are keyed by index, independent of the
    shard layout. *)

val run :
  sched:Scheduler.t ->
  rng:Rng.t ->
  conns:submit array ->
  config ->
  Fct_stats.t
(** Generates all arrivals, then drives the scheduler until every job has
    completed (there must be no other unbounded event sources that block
    progress — periodic probes etc. are fine).  Returns the recorded
    FCTs. *)
