(** Store-and-forward output-queued switch.

    Switches decrement TTL (answering expired traceroute probes with a
    reply identifying the ingress interface, like ICMP time-exceeded),
    look up the candidate egress ports for the packet's routed destination,
    and pick one — by default with seeded ECMP hashing of the outer 5-tuple,
    except that a spine choosing within one parallel bundle keeps the
    parallel-link index of the ingress port (the deterministic spine wiring
    used in the paper's testbed, which makes the four leaf-to-leaf paths
    disjoint).

    The egress picker ({!set_picker}) is the one extension point: the
    in-fabric schemes (LetFlow, CONGA, CAFT) override the choice among
    candidates with it, without the switch depending on them.

    INT is built in: every switch maxes its egress link's DRE utilization
    into [int_util] of each INT-enabled packet, after the picker chose the
    port.  Clove-INT's vswitch and CONGA's source leaf enable it. *)

type t

type level = Leaf | Spine | Core_sw
(** Role in the topology; used by CONGA (leaf vs. spine behaviour) and for
    reporting. *)

val create :
  sched:Scheduler.t ->
  id:int ->
  level:level ->
  ecmp_seed:int ->
  ?latency:Sim_time.span ->
  unit ->
  t
(** [latency] (default 250 ns): the pipeline, see {!wire_ingress}. *)

val id : t -> int
val level : t -> level
val sched : t -> Scheduler.t

val add_port : t -> link:Link.t -> peer:int -> parallel_index:int -> int
(** Register an egress link to neighbor node [peer]; returns the port id.
    [parallel_index] is this link's index within a parallel bundle. *)

val port_count : t -> int
val port_link : t -> int -> Link.t
val port_peer : t -> int -> int
val ports_to_peer : t -> peer:int -> int list

val set_routes : t -> Addr.t -> int array -> unit
(** Candidate egress ports for a destination (replaces previous entry). *)

val routes : t -> Addr.t -> int array option
val clear_routes : t -> unit

val wire_ingress : t -> in_port:int -> Link.t -> unit
(** Make this switch the sink of an ingress link: packets enter {!receive}
    on [in_port] [latency] after the wire delivers them, in the link's
    delivery event ({!Link.set_switch_sink}); the switch has none. *)

val receive : t -> in_port:int -> Packet.t -> unit
(** Decrement the TTL and forward, or drop and answer an expired
    traceroute probe, at once.  [in_port] is the local port id whose link
    points back toward the sender (used for index-preserving forwarding);
    use [-1] when unknown. *)

type picker = t -> in_port:int -> Packet.t -> candidates:int array -> int

val set_picker : t -> picker -> unit

val rx_packets : t -> int
val routing_drops : t -> int
(** Packets dropped for lack of a route (e.g. during failures). *)

val ttl_drops : t -> int

val ttl_replies : t -> int
(** Traceroute replies originated here, counted as they are forwarded. *)
