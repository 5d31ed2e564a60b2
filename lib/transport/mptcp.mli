(** Multipath TCP connection model.

    An MPTCP connection opens a fixed number of subflows, each a {!Tcp}
    sender/receiver pair with a distinct inner source port, so ECMP pins
    each subflow to a (static) path — exactly the property the paper
    credits for MPTCP's good average FCT and blames for its poor tail and
    incast behaviour.

    Scheduling is pull-based: a subflow with window space requests bytes of
    the connection-level job stream in small chunks.  Congestion avoidance
    uses the LIA coupled increase (Wischik et al., NSDI'11): per-ACK
    increase min(alpha / cwnd_total, 1 / cwnd_r), keeping the aggregate no
    more aggressive than one TCP on the best path. *)

type t

val create :
  sched:Scheduler.t ->
  cfg:Tcp_config.t ->
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
  ?chunk_bytes:int ->
  ?stripe_threshold:int ->
  ?coupled:bool ->
  unit ->
  t
(** Creates and registers all subflow endpoints on the two stacks.
    [chunk_bytes] (default 4 MSS) is the granule the scheduler hands to a
    subflow; jobs of at most [stripe_threshold] bytes (default 64 KB) are
    pinned to the lowest-RTT subflow instead of being striped; [coupled]
    (default true) enables LIA. *)

val send : t -> bytes:int -> on_complete:(unit -> unit) -> unit
(** Enqueue a job; jobs are served FIFO over the subflow pool and complete
    when every byte has been acknowledged on its subflow. *)

val reinjections : t -> int
(** Grants reinjected onto healthy subflows after a subflow RTO
    (opportunistic retransmission). *)
