(** Clove tunables (Sections 3–4 of the paper).

    What stays configurable: the RTT estimate, the flowlet gap, the path
    count, the weight cut, the traceroute period, the four Section 7
    variants and the failure-recovery switch.  Defaults follow the paper's recommended/"Clove-best"
    settings: flowlet gap of one network RTT, weight reduction by one
    third (the ECN marking threshold of 20 packets is configured on the
    fabric, see {!Netsim.Fabric.config}).

    Every other setting is a private constant of the one module that
    reads it, the timers among them derived from [rtt_estimate] once at
    construction:
    - {!Path_table}: weight floor 0.02, congested window 4 RTT, sample
      staleness 50 RTT, path verification 2 probe intervals, suspect
      timeout 20 RTT, suspect decay 0.5 per tick, recovery after 16 quiet
      RTTs at rate 0.25 per tick;
    - {!Vswitch}: ECN relay interval RTT/2 (the paper's), dedicated
      feedback deadline 2 RTT, maintenance every 8 RTT, 64 KB Presto
      flowcells;
    - {!Presto_rx}: reorder timeout 10 RTT, at most 512 buffered
      out-of-order packets per flow;
    - {!Traceroute}: 32 fresh ports per cycle, TTL up to 8, 10 ms probe
      timeout, eviction after 2 dry cycles. *)

type t = {
  rtt_estimate : Sim_time.span;
      (** the operator's estimate of the unloaded network RTT, from which
          the flowlet gap and every RTT-scaled timer are derived *)
  flowlet_gap : Sim_time.span;
      (** idle gap that opens a new flowlet (paper: 1–2 RTT; best 1 RTT) *)
  k_paths : int;  (** target number of distinct paths to keep per destination *)
  weight_cut : float;
      (** fraction of a congested path's weight removed per ECN feedback
          (paper: "e.g., by a third") *)
  probe_interval : Sim_time.span;  (** traceroute refresh period *)
  rewrite_mode : bool;
      (** non-overlay environments (Section 7): instead of adding an
          encapsulation header, the virtual switch rewrites the 5-tuple and
          hides the original values in TCP options (12 bytes of overhead
          instead of a full outer header) *)
  clove_reorder : bool;
      (** carry flowlet sequence numbers and restore packet order at the
          receiving virtual switch, as Section 7's flowlet optimization
          suggests (reusing the Presto reassembly machinery) *)
  adaptive_flowlet_gap : bool;
      (** adapt the flowlet gap to the measured inter-path delay spread
          (Section 7), requires latency feedback (Clove-Latency) *)
  expose_ecn_to_guest : bool;
      (** copy fabric CE marks into the inner header on delivery instead of
          masking them — for DCTCP guest stacks (Section 7), which want the
          full stream of marks *)
  failure_recovery : bool;
      (** master switch for the failure-recovery hardening (sample aging,
          black-hole weight decay, post-congestion recovery, traceroute
          full-miss eviction).  Off restores the paper's literal behavior:
          state only changes on explicit feedback. *)
}

val default : t
(** Derived from a 60 us RTT estimate: the configuration of components
    built without a scenario (unit tests, the benchmark's per-call
    probes).  A scenario derives its own with {!with_rtt} from
    [Scenario.params.rtt_estimate], 40 us by default on the simulated
    2-tier testbed. *)

val with_rtt : Sim_time.span -> t
(** [default] re-derived from a different RTT estimate. *)
