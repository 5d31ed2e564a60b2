(** Clove tunables (Sections 3–4 of the paper).

    Defaults follow the paper's recommended/"Clove-best" settings: flowlet
    gap of one network RTT, ECN marking threshold of 20 packets (configured
    on the fabric, see {!Netsim.Fabric.config}), ECN relay frequency of half
    an RTT, weight reduction by one third. *)

type t = {
  rtt_estimate : Sim_time.span;
      (** the operator's estimate of the unloaded network RTT, from which
          the defaults below are derived *)
  flowlet_gap : Sim_time.span;
      (** idle gap that opens a new flowlet (paper: 1–2 RTT; best 1 RTT) *)
  k_paths : int;  (** target number of distinct paths to keep per destination *)
  weight_cut : float;
      (** fraction of a congested path's weight removed per ECN feedback
          (paper: "e.g., by a third") *)
  min_weight : float;  (** weight floor so no path starves forever *)
  ecn_relay_interval : Sim_time.span;
      (** receiver-side per-path relay rate limit (paper: RTT/2) *)
  congested_window : Sim_time.span;
      (** how long a path is considered congested after feedback, for the
          "all paths congested" escalation to the guest *)
  probe_interval : Sim_time.span;  (** traceroute refresh period *)
  probe_ports : int;  (** random source ports traced per refresh *)
  max_ttl : int;
  probe_timeout : Sim_time.span;  (** per-probe loss deadline *)
  feedback_deadline : Sim_time.span;
      (** send a dedicated feedback packet if no reverse traffic shows up *)
  presto_cell_bytes : int;  (** Presto flowcell size (64 KB) *)
  presto_reorder_timeout : Sim_time.span;
  presto_buffer_limit : int;  (** max buffered out-of-order packets per flow *)
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
      (** master switch for the failure-recovery hardening below (sample
          aging, black-hole weight decay, post-congestion recovery,
          traceroute full-miss eviction).  Off restores the paper's literal
          behavior: state only changes on explicit feedback. *)
  path_staleness : Sim_time.span;
      (** latency/utilization samples older than this are ignored by
          [pick_min_latency]/[pick_least_utilized]; a port whose last
          traceroute verification is also older counts as unusable instead
          of as a zero-delay winner *)
  path_suspect_timeout : Sim_time.span;
      (** a path that carried transmissions for this long with no returning
          evidence (feedback, ACK credit, probe verification) is suspect:
          its weight decays toward zero — black-hole eviction, §3.1's
          "adapt to changes and failures" *)
  suspect_decay : float;
      (** fraction of a suspect path's weight removed per maintenance tick *)
  weight_recovery_quiet : Sim_time.span;
      (** a path with no congestion feedback for this long regains weight
          toward uniform, so a transient failure does not permanently
          starve a healed path *)
  weight_recovery_rate : float;
      (** per-maintenance-tick drift of a quiet path's weight toward its
          uniform share *)
  maintain_interval : Sim_time.span;  (** path-table maintenance period *)
  evict_after_cycles : int;
      (** consecutive traceroute cycles with zero reaching ports before the
          stale install is cleared (falling back to ECMP hashing) *)
}

val default : t
(** Derived from a 60 us RTT estimate, matching the simulated testbed. *)

val with_rtt : Sim_time.span -> t
(** [default] re-derived from a different RTT estimate. *)
