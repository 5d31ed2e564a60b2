(** Multipath TCP connection model.

    An MPTCP connection opens a fixed number of subflows, each a {!Tcp}
    sender/receiver pair with a distinct inner source port, so ECMP pins
    each subflow to a (static) path — exactly the property the paper
    credits for MPTCP's good average FCT and blames for its poor tail and
    incast behaviour.

    Each subflow's sender is created with a {!Tcp.coupling}: the
    connection hands it bytes, sets its congestion-avoidance increase,
    attributes its ACKed bytes to jobs and reinjects after its RTO.
    There is no shared reassembly: each subflow has its own receiver, and
    a job completes once every grant carved from it is acknowledged.

    Scheduling is pull-based: a subflow with window space requests bytes of
    the connection-level job stream in small chunks.  Congestion avoidance
    uses the LIA coupled increase (Wischik et al., NSDI'11): per-ACK
    increase min(alpha / cwnd_total, 1 / cwnd_r), keeping the aggregate no
    more aggressive than one TCP on the best path. *)

type t

val create :
  sched:Scheduler.t ->
  dctcp:bool ->
  conn_id:int ->
  subflows:int ->
  src:Addr.t ->
  dst:Addr.t ->
  base_port:int ->
  dst_port:int ->
  tx_src:(Packet.t -> unit) ->
  tx_dst:(Packet.t -> unit) ->
  src_stack:Stack.t ->
  dst_stack:Stack.t ->
  unit ->
  t
(** Creates and registers all subflow endpoints on the two stacks.  The
    scheduler hands a subflow 4 MSS at a time; jobs of at most 64 KB are
    pinned to the lowest-RTT subflow instead of being striped. *)

val send : t -> bytes:int -> on_complete:(unit -> unit) -> unit
(** Enqueue a job; jobs are served FIFO over the subflow pool and complete
    when every byte has been acknowledged on its subflow. *)

(* oracle of test_coverage's mptcp reinjection case — lint: allow dead-export *)
val reinjections : t -> int
(** Grants reinjected onto healthy subflows after a subflow RTO
    (opportunistic retransmission). *)
