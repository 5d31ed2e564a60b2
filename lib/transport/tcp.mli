(** Packet-level TCP endpoints (NewReno-style, no SACK).

    The model mirrors NS2's: MSS-granularity segments, slow start,
    congestion avoidance, three-dupack fast retransmit with NewReno partial
    ACK handling, retransmission timeouts with exponential backoff, per-
    packet cumulative ACKs, and a receive-side reordering buffer.  Both
    directions of a connection are modelled — data flows sender to
    receiver, ACKs flow back as real packets through the same network (so
    reverse traffic exists for Clove's feedback piggybacking, and ACK
    clocking stalls create flowlet gaps exactly as the paper describes).

    Endpoints hand *inner* (unencapsulated) packets to a transmit callback
    provided by the hypervisor virtual-switch layer, which encapsulates
    and forwards them; inbound inner packets are dispatched back by
    {!Stack}.

    The segment size ({!mss}), the initial window (10 packets), the
    dupack threshold (3), the RTO bounds ({!Rtt_estimator}) and DCTCP's
    gain (1/16) are constants; the guest always reacts to ECN.  A sender
    varies in two ways only: the DCTCP response and an MPTCP
    {!coupling}, both fixed when it is created. *)

type sender
type receiver

val mss : int
(** Payload bytes per segment (1400). *)

(** {2 Sender} *)

type coupling = {
  pull : unit -> int;
      (** called when the stream is exhausted and window space remains;
          returns the bytes the connection granted (0 = none) *)
  ca_increase : unit -> float;
      (** the per-packet-acked congestion-avoidance increment (MPTCP's
          coupled increase), replacing [1 / cwnd] *)
  on_acked : int -> unit;
      (** newly acknowledged bytes, on every cumulative ACK advance *)
  on_timeout : unit -> unit;  (** after the retransmission timer fires *)
}
(** How an MPTCP connection drives one of its subflows. *)

val create_sender :
  sched:Scheduler.t ->
  dctcp:bool ->
  ?coupling:coupling ->
  conn_id:int ->
  ?subflow:int ->
  src:Addr.t ->
  dst:Addr.t ->
  src_port:int ->
  dst_port:int ->
  tx:(Packet.t -> unit) ->
  unit ->
  sender
(** [dctcp] cuts the window on ECN by half the marked-byte fraction
    (DCTCP guests, Section 7) instead of halving it.  Without [coupling]
    the sender is plain TCP. *)

val send : sender -> bytes:int -> on_complete:(unit -> unit) -> unit
(** Append a job of [bytes] to the stream; [on_complete] fires when its
    last byte is cumulatively acknowledged.  Jobs are a FIFO byte stream,
    matching transfers multiplexed on a persistent connection. *)

val on_ack : sender -> Packet.tcp_seg -> unit
(** Process an inbound ACK segment (called by {!Stack}). *)

val ecn_signal : sender -> unit
(** Out-of-band congestion signal from the hypervisor (Clove relays ECN to
    the guest only when all paths are congested); reduces the window at
    most once per RTT, like an ECE. *)

val try_send : sender -> unit
(** Opportunistically transmit whatever the window allows. *)

val cwnd_pkts : sender -> float
val srtt : sender -> default:Sim_time.span -> Sim_time.span
(** The smoothed RTT, or [default] before the first sample. *)

val flight_bytes : sender -> int
val snd_una : sender -> int
val retransmits : sender -> int
val timeouts : sender -> int
val conn_id : sender -> int
val subflow_id : sender -> int
val dst : sender -> Addr.t

val stop : sender -> unit
(** Disarm the timers and ignore later ACKs (end of experiment). *)

(** {2 Receiver} *)

val create_receiver :
  conn_id:int ->
  ?subflow:int ->
  addr:Addr.t ->
  peer:Addr.t ->
  src_port:int ->
  dst_port:int ->
  tx:(Packet.t -> unit) ->
  unit ->
  receiver

val on_data : receiver -> Packet.inner -> unit
(** Process an inbound data segment; emits a (possibly duplicate) ACK. *)

val conn_id_r : receiver -> int
val subflow_id_r : receiver -> int
val rcv_next : receiver -> int
val delivered_bytes : receiver -> int
val ooo_segments : receiver -> int
(** Number of segments that arrived out of order (reordering metric). *)
