(** Packets and header formats.

    A packet models a tenant TCP segment optionally wrapped in an STT-like
    encapsulation header (as used by Clove), plus the metadata fields that
    the different load-balancing schemes read and write:

    - the outer IP ECN codepoint marked by fabric switches;
    - Clove feedback carried in "reserved context bits" of the
      encapsulation header (source port + congestion bit, or utilization);
    - a Presto flowcell tag (flow key, cell id, per-flow packet sequence);
    - CONGA metadata (lbtag, CE metric, piggybacked feedback);
    - an INT max-utilization field stamped by INT-capable switches.

    Traceroute probes and their replies (ICMP time-exceeded, or the
    destination hypervisor's echo) are separate payload constructors. *)

type ecn = Not_ect | Ect | Ce

(** Simplified TCP segment kinds: persistent connections are established out
    of band, so there is no handshake. *)
type tcp_kind = Data | Ack

(** All fields are mutable so [Packet_pool] can recycle segment records
    in place; outside the pool they are set once at construction. *)
type tcp_seg = {
  mutable conn_id : int;  (** global connection identifier *)
  mutable subflow : int;  (** MPTCP subflow index; 0 for plain TCP *)
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;  (** first payload byte (Data) *)
  mutable ack : int;  (** cumulative ack: next expected byte (Ack) *)
  mutable kind : tcp_kind;
  mutable payload : int;  (** payload bytes carried *)
  mutable ece : bool;  (** ECN-echo from receiver to sender *)
}

(** The tenant packet as emitted by the guest VM network stack.
    [src]/[dst] are mutable for [Packet_pool] recycling only. *)
type inner = {
  mutable src : Addr.t;
  mutable dst : Addr.t;
  mutable inner_ecn : ecn;  (** ECN as seen by the guest stack *)
  seg : tcp_seg;
}

(** Clove feedback relayed in encapsulation context bits (Section 4 of the
    paper): which outer source port the destination saw, and either a binary
    congestion flag (Clove-ECN) or the maximum path utilization
    (Clove-INT). *)
type clove_feedback =
  | Fb_ecn of { port : int; congested : bool }
  | Fb_util of { port : int; util : float }
  | Fb_latency of { port : int; delay : Sim_time.span }
      (** one-way path delay measured with NIC timestamping and synchronized
          hypervisor clocks (Section 7, "Use of path latency") *)

type flowcell = {
  flow_key : int;  (** hash of the inner 5-tuple *)
  cell_id : int;  (** monotonically increasing flowcell number *)
  cell_seq : int;  (** packet index within the flow, for reassembly order *)
}

(** CONGA metadata as carried in its VXLAN-style overlay. *)
type conga_md = {
  src_leaf : int;
  dst_leaf : int;
  mutable lbtag : int;  (** uplink chosen by the source leaf *)
  mutable ce : float;  (** max utilization seen along the path *)
  mutable fb_lbtag : int;  (** feedback: which uplink the metric is for; -1 = none *)
  mutable fb_ce : float;
}

(** STT-like encapsulation header added by the source hypervisor.  All
    fields are mutable so the packet's pre-boxed header can be rewritten
    in place per transmit ({!install_encap}); outside that path they are
    set once at construction. *)
type encap = {
  mutable src_hv : Addr.t;
  mutable dst_hv : Addr.t;
  mutable src_port : int;  (** the field Clove manipulates *)
  mutable dst_port : int;  (** the STT destination port on tenant paths *)
  mutable feedback : clove_feedback option;  (** context bits *)
  mutable cell : flowcell option;  (** Presto tag *)
}

type probe_info = {
  probe_id : int;
  probe_src : Addr.t;
  probe_dst : Addr.t;
  probe_port : int;  (** encapsulation source port being traced *)
}

(** Identity of a traversed switch interface, as revealed by ICMP
    time-exceeded messages: (node id, ingress port). *)
type hop = { hop_node : int; hop_port : int }

type probe_reply = {
  reply_to : Addr.t;
  reply_probe_id : int;
  reply_port : int;
  reply_ttl : int;  (** the TTL the probe was sent with *)
  reply_hop : hop option;  (** [None] when the destination host answered *)
}

type payload =
  | Tenant of inner
  | Probe of probe_info
  | Probe_reply of probe_reply

type t = {
  mutable uid : int;  (** unique per logical packet; refreshed on pool reuse *)
  mutable size : int;  (** wire size in bytes, for link occupancy *)
  mutable ttl : int;
  mutable ecn : ecn;  (** outer IP ECN codepoint (fabric-visible) *)
  mutable encap : encap option;
  mutable conga : conga_md option;
  mutable int_enabled : bool;
  mutable int_util : float;  (** max egress utilization along the path *)
  mutable sent_at : Sim_time.t;  (** set when first transmitted *)
  mutable audit_seq : int;
      (** per-(flow, outer-port) sequence stamped by the invariant
          auditor's FIFO check; [-1] when auditing is off *)
  payload : payload;
  cached_encap : encap;
      (** this packet's pre-boxed encapsulation header, rewritten in
          place by {!install_encap}; travels with the packet across PDES
          domain migrations *)
  cached_encap_some : encap option;
      (** physically [Some cached_encap], installed without allocating *)
}

val stt_port : int
(** The fixed encapsulation destination port (STT). *)

val inner_header_bytes : int
val encap_header_bytes : int

val fresh_uid : unit -> int
(** Next packet uid; used by [Packet_pool] when recycling a packet so a
    reused record is still distinguishable in logs and audit output.
    Uids come from domain-local blocks drawn off one global counter, so
    they are globally unique without bouncing a cache line per packet in
    parallel sweeps; a single-domain run sees the sequential stream. *)

val make : ?ttl:int -> size:int -> payload -> t
(** Allocates a packet with a fresh [uid]; [size] is the wire size. *)

val placeholder : t
(** Inert padding packet (uid [-1]) for rings and in-flight slots on the
    defunctionalized event path.  Never transmitted; constructed without
    consuming a uid so padding does not perturb the uid stream. *)

val make_tenant :
  src:Addr.t -> dst:Addr.t -> seg:tcp_seg -> t
(** Wire size is computed from the segment payload + inner headers. *)

val install_encap :
  t ->
  src_hv:Addr.t ->
  dst_hv:Addr.t ->
  src_port:int ->
  feedback:clove_feedback option ->
  cell:flowcell option ->
  unit
(** Encapsulate [t] by rewriting its own pre-boxed header in place
    (destination port = {!stt_port}) and installing the cached [Some] —
    the steady-state vswitch transmit path allocates nothing.  Probes
    that vary the destination port build their headers directly. *)

val tcp_flow_key : inner -> int
(** Deterministic hash of the inner 5-tuple (src, dst, ports, subflow). *)

val tcp_flow_key_rev : inner -> int
(** Key of the {e reverse} flow: what [tcp_flow_key] returns for traffic
    going the other way.  Lets a receiver of an ACK credit the forward
    flow that elicited it (black-hole liveness tracking). *)

val route_dst : t -> Addr.t
(** The address fabric switches route on: the outer destination if
    encapsulated, the inner destination otherwise; probe replies are routed
    to [reply_to]. *)

val is_probe : t -> bool
val pp : Format.formatter -> t -> unit
