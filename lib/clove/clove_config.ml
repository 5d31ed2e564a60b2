type t = {
  rtt_estimate : Sim_time.span;
  flowlet_gap : Sim_time.span;
  k_paths : int;
  weight_cut : float;
  probe_interval : Sim_time.span;
  rewrite_mode : bool;
  clove_reorder : bool;
  adaptive_flowlet_gap : bool;
  expose_ecn_to_guest : bool;
  failure_recovery : bool;
}

let with_rtt rtt =
  {
    rtt_estimate = rtt;
    flowlet_gap = rtt;
    k_paths = 8;
    weight_cut = 1.0 /. 3.0;
    probe_interval = Sim_time.ms 500;
    rewrite_mode = false;
    clove_reorder = false;
    adaptive_flowlet_gap = false;
    expose_ecn_to_guest = false;
    failure_recovery = true;
  }

let default = with_rtt (Sim_time.us 60)
