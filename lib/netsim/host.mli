(** A physical server running a hypervisor.

    The host is a thin shell: it owns the access uplink and delivers
    received packets to a handler installed by the hypervisor layer (the
    Clove virtual switch, or a plain passthrough).  Transport endpoints and
    load-balancing logic live above. *)

type t

val create : sched:Scheduler.t -> id:int -> addr:Addr.t -> t
val id : t -> int
val addr : t -> Addr.t
val sched : t -> Scheduler.t

val attach_uplink : t -> Link.t -> unit
(** The host's NIC egress toward its leaf switch. *)

(* test_analysis' conservation fixture, test_extensions' rewrite-mode — lint: allow dead-export *)
val uplink : t -> Link.t

val set_handler : t -> (Packet.t -> unit) -> unit
(** Called for every packet arriving at the host NIC. *)

val send : t -> Packet.t -> unit
(** Transmit via the uplink; stamps [sent_at] with the current time. *)

(* packet taps of test_analysis' audit-units, test_dataplane, test_faults — lint: allow dead-export *)
val set_tx_tap : t -> (Packet.t -> unit) -> unit
(** Observe every packet the host transmits (monitoring/tests); the tap
    runs before the packet enters the uplink queue. *)

val deliver : t -> Packet.t -> unit
(** Ingress entry point (wired as the sink of the downlink). *)

val rx_packets : t -> int
val tx_packets : t -> int
