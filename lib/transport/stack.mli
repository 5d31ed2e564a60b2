(** Per-host transport registry.

    The hypervisor virtual switch delivers decapsulated inner packets here;
    the stack dispatches them to the registered endpoint by (connection id,
    subflow, direction). *)

type t

val create : unit -> t
val register_sender : t -> Tcp.sender -> unit
val register_receiver : t -> Tcp.receiver -> unit

val deliver : t -> Packet.inner -> unit
(** Data segments go to the matching receiver, ACKs to the matching sender;
    unknown connections are counted and dropped. *)

val ecn_signal_all : t -> dst:Addr.t -> unit
(** Relay a hypervisor congestion signal to every local sender talking to
    [dst] (Clove's "all paths congested" escalation). *)

val senders : t -> Tcp.sender list
val unknown_drops : t -> int
val stop_all : t -> unit
(** {!Tcp.stop} every sender; used to quiesce at the end of a run. *)
