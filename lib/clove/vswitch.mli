(** The hypervisor virtual switch — Clove's dataplane.

    One instance runs on every host.  Guest transport endpoints hand it
    inner packets ({!tx}); it encapsulates them with an STT-like header
    whose source port steers the fabric's ECMP choice, according to the
    configured load-balancing scheme:

    - {b Ecmp}: static hash of the inner 5-tuple (the baseline);
    - {b Edge_flowlet}: a fresh random source port per flowlet,
      congestion-oblivious;
    - {b Clove_ecn}: weighted round-robin over traceroute-discovered
      disjoint paths, weights adapted from relayed ECN feedback;
    - {b Clove_int}: new flowlets go to the least-utilized discovered path,
      from relayed INT telemetry (the same minimum picker as
      [Clove_latency], over a different sample);
    - {b Presto}: 64 KB flowcells sprayed over discovered paths with static
      weights, reassembled in order at the receiver;
    - {b Direct}: no encapsulation — used when the fabric itself load
      balances (CONGA).

    On the receive side it decapsulates, answers traceroute probes,
    intercepts fabric ECN marks, INT utilization or one-way delay (masking
    them from the guest), relays them back to the sender's hypervisor in encapsulation
    context bits — piggybacked on reverse traffic when available, else in a
    dedicated carrier packet — and escalates to the local guest TCP only
    when every path to a destination is congested.

    What it knows about one remote hypervisor lives in one record, found
    with one lookup per packet: as a source, the path table toward it and
    its Presto weights; as a receiver, the feedback queued for it, the
    per-port relay rate limiter and the carrier timer.  Path discovery
    toward a remote starts once, on {!add_destination} or the first
    transmission to it; ECMP, Edge-Flowlet and Direct keep no per-remote
    state. *)

type scheme =
  | Ecmp
  | Edge_flowlet
  | Clove_ecn
  | Clove_int
  | Clove_latency
      (** route new flowlets to the path with the smallest relayed one-way
          delay (Section 7's latency-based variant) *)
  | Presto
  | Direct

type t

type stats = {
  tx_tenant : int;
  rx_tenant : int;
  flowlets : int;
  feedback_piggybacked : int;
  feedback_carriers : int;  (** dedicated feedback packets sent *)
  congestion_feedback_seen : int;  (** CE/INT observations relayed to us *)
  escalations : int;  (** "all paths congested" signals to local guests *)
  probes_answered : int;
  feedback_dropped : int;  (** feedback lost to an injected Feedback_loss fault *)
  probes_dropped : int;  (** probes/replies lost to an injected Probe_loss fault *)
}

val create :
  route_epoch:(unit -> int) ->
  host:Host.t ->
  stack:Transport.Stack.t ->
  scheme:scheme ->
  cfg:Clove_config.t ->
  rng:Rng.t ->
  unit ->
  t
(** Installs itself as the host's packet handler.  [route_epoch] reads
    the fabric's reconvergence count for the audit's {!Fifo_check}. *)

val tx : t -> Packet.t -> unit
(** Outbound inner (unencapsulated tenant) packet from the local guest. *)

val add_destination : t -> Addr.t -> unit
(** Pre-warm path discovery toward a destination hypervisor (otherwise it
    starts lazily on first transmission). *)

val set_presto_weight_fn : t -> (Clove_path.t -> float) -> unit
(** Static per-path Presto weights, evaluated when paths are (re)installed;
    default weights are uniform. *)

val set_feedback_loss : t -> float -> unit
(** Fault injection: drop congestion feedback with this probability (in
    [0, 1)) before the path table sees it; [0.0] turns it off.  Its
    randomness, and {!set_probe_loss}'s, comes from a dedicated
    ["fault-drops"] substream consumed only while a probability is
    non-zero, so fault-free runs are byte-identical to runs without this
    subsystem. *)

val set_probe_loss : t -> float -> unit
(** Fault injection: drop traceroute probes arriving at this vswitch and
    probe replies returning to it with this probability (in [0, 1));
    independent of {!set_feedback_loss}. *)

val path_table : t -> Addr.t -> Path_table.t option
val stats : t -> stats

val peak_flows_tracked : t -> int
(** High-water mark over the run of the flows resident in the flowlet
    table — what it actually had to hold, independent of the maintain
    tick's idle-flow eviction. *)

val stop : t -> unit
(** Stop the traceroute daemon and the recovery maintenance timer (end of
    experiment). *)
