(** Store-and-forward output-queued switch.

    Switches decrement TTL (answering expired traceroute probes with a
    reply identifying the ingress interface, like ICMP time-exceeded),
    look up the candidate egress ports for the packet's routed destination,
    and pick one — by default with seeded ECMP hashing of the outer 5-tuple,
    optionally preserving the parallel-link index of the ingress port (the
    deterministic spine wiring used in the paper's testbed, which makes the
    four leaf-to-leaf paths disjoint).

    Pluggable hooks let higher layers implement in-fabric schemes (CONGA)
    without the switch depending on them:
    - [rx hook]: observe/modify a packet on ingress (before routing);
    - [picker]: override the egress choice among candidates;
    - [tx hook]: observe/modify a packet after the choice, before enqueue.

    INT support is built in: when [int_capable] is set, the switch stamps
    the maximum egress-link utilization into INT-enabled packets. *)

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
  ?index_preserving:bool ->
  ?int_capable:bool ->
  unit ->
  t

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

val receive : t -> in_port:int -> Packet.t -> unit
(** Entry point wired as the sink of every ingress link.  [in_port] is the
    local port id whose link points back toward the sender (used for
    index-preserving forwarding); use [-1] when unknown. *)

type picker = t -> in_port:int -> Packet.t -> candidates:int array -> int

val set_picker : t -> picker -> unit
val set_rx_hook : t -> (t -> in_port:int -> Packet.t -> unit) -> unit
val set_tx_hook : t -> (t -> port:int -> Packet.t -> unit) -> unit

val rx_packets : t -> int
val routing_drops : t -> int
(** Packets dropped for lack of a route (e.g. during failures). *)

val ttl_drops : t -> int
