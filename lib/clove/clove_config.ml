type t = {
  rtt_estimate : Sim_time.span;
  flowlet_gap : Sim_time.span;
  k_paths : int;
  weight_cut : float;
  min_weight : float;
  ecn_relay_interval : Sim_time.span;
  congested_window : Sim_time.span;
  probe_interval : Sim_time.span;
  probe_ports : int;
  max_ttl : int;
  probe_timeout : Sim_time.span;
  feedback_deadline : Sim_time.span;
  presto_cell_bytes : int;
  presto_reorder_timeout : Sim_time.span;
  presto_buffer_limit : int;
  rewrite_mode : bool;
  clove_reorder : bool;
  adaptive_flowlet_gap : bool;
  expose_ecn_to_guest : bool;
  failure_recovery : bool;
  path_staleness : Sim_time.span;
  path_suspect_timeout : Sim_time.span;
  suspect_decay : float;
  weight_recovery_quiet : Sim_time.span;
  weight_recovery_rate : float;
  maintain_interval : Sim_time.span;
  evict_after_cycles : int;
}

let with_rtt rtt =
  {
    rtt_estimate = rtt;
    flowlet_gap = rtt;
    k_paths = 8;
    weight_cut = 1.0 /. 3.0;
    min_weight = 0.02;
    ecn_relay_interval = Sim_time.mul_span rtt 0.5;
    congested_window = Sim_time.mul_span rtt 4.0;
    probe_interval = Sim_time.ms 500;
    probe_ports = 32;
    max_ttl = 8;
    probe_timeout = Sim_time.ms 10;
    feedback_deadline = Sim_time.mul_span rtt 2.0;
    presto_cell_bytes = 64 * 1024;
    presto_reorder_timeout = Sim_time.mul_span rtt 10.0;
    presto_buffer_limit = 512;
    rewrite_mode = false;
    clove_reorder = false;
    adaptive_flowlet_gap = false;
    expose_ecn_to_guest = false;
    failure_recovery = true;
    path_staleness = Sim_time.mul_span rtt 50.0;
    path_suspect_timeout = Sim_time.mul_span rtt 20.0;
    suspect_decay = 0.5;
    (* quiet window 4x the congestion-feedback cadence (congested_window
       = 4 rtt): a path still receiving marks never drifts, while weights
       skewed by a hotspot or fault that has cleared heal within a few
       maintain cycles.  Chaos-calibrated: gentler rates leave stale skew
       in place long enough to hurt the fault-free baseline more than the
       drift ever hurts a faulted run. *)
    weight_recovery_quiet = Sim_time.mul_span rtt 16.0;
    weight_recovery_rate = 0.25;
    maintain_interval = Sim_time.mul_span rtt 8.0;
    evict_after_cycles = 2;
  }

let default = with_rtt (Sim_time.us 60)
