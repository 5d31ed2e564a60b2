(** Packets and header formats.

    A packet models a tenant TCP segment optionally wrapped in an STT-like
    encapsulation header (as used by Clove), plus the metadata fields that
    the different load-balancing schemes read and write:

    - the outer IP ECN codepoint marked by fabric switches;
    - Clove feedback carried in "reserved context bits" of the
      encapsulation header (source port + congestion bit, or a path cost
      sample: utilization or one-way delay);
    - a Presto flowcell tag (flow key, cell id, per-flow packet sequence);
    - CONGA metadata (lbtag, piggybacked feedback);
    - an INT max-utilization field stamped by every switch on INT-enabled
      packets: Clove-INT's path utilization, and also CONGA's CE metric.

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
    paper): which outer source port the destination saw, and what it saw
    on that path. *)
type clove_feedback =
  | Fb_ecn of { port : int }
      (** the path's packets arrived CE-marked (Clove-ECN) *)
  | Fb_sample of { port : int; value : float }
      (** a per-path cost sample the source minimizes: the maximum path
          utilization stamped by INT (Clove-INT), or the one-way delay in
          seconds measured with NIC timestamping and synchronized
          hypervisor clocks (Clove-Latency, Section 7) *)

type flowcell = {
  flow_key : int;  (** hash of the inner 5-tuple *)
  cell_id : int;  (** monotonically increasing flowcell number *)
  cell_seq : int;  (** packet index within the flow, for reassembly order *)
}

(** CONGA metadata as carried in its VXLAN-style overlay.  The CE metric
    (max utilization along the path) is the packet's INT stamp,
    [int_util]. *)
type conga_md = {
  src_leaf : int;
  dst_leaf : int;
  mutable lbtag : int;  (** uplink chosen by the source leaf *)
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
  mutable size : int;  (** wire size in bytes, for link occupancy *)
  mutable ttl : int;
  mutable ecn : ecn;  (** outer IP ECN codepoint (fabric-visible) *)
  mutable encap : encap option;
  mutable conga : conga_md option;
  mutable int_enabled : bool;
  mutable int_util : float;  (** max egress utilization along the path *)
  mutable sent_at : Sim_time.t;  (** set when first transmitted *)
  mutable audit_seq : int;
      (** the audit's [Clove.Fifo_check] stamp (route epoch and
          per-(flow, outer-port) sequence); [-1] when not audited *)
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

val make : ?ttl:int -> size:int -> payload -> t
(** Allocates a packet; [size] is the wire size. *)

val placeholder : t
(** Inert padding packet for rings and in-flight slots on the
    defunctionalized event path.  Never transmitted. *)

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
(** Deterministic hash of the inner 5-tuple: [Hashtbl.hash (src, dst,
    src_port, dst_port, subflow)], computed in OCaml with no runtime
    call and no allocation. *)

val tcp_flow_key_rev : inner -> int
(** Key of the {e reverse} flow: what [tcp_flow_key] returns for traffic
    going the other way.  Lets a receiver of an ACK credit the forward
    flow that elicited it (black-hole liveness tracking). *)

val route_dst : t -> Addr.t
(** The address fabric switches route on: the outer destination if
    encapsulated, the inner destination otherwise; probe replies are routed
    to [reply_to]. *)
