type t = {
  mss : int;
  min_rto : Sim_time.span;
  max_rto : Sim_time.span;
  dctcp : bool;
  dctcp_g : float;
}

let default =
  {
    mss = 1400;
    min_rto = Sim_time.ms 10;
    max_rto = Sim_time.sec 2.0;
    dctcp = false;
    dctcp_g = 1.0 /. 16.0;
  }

let dctcp = { default with dctcp = true }
