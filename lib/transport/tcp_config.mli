(** Guest TCP stack parameters. *)

type t = {
  mss : int;  (** payload bytes per segment *)
  min_rto : Sim_time.span;
  max_rto : Sim_time.span;
  dctcp : bool;
      (** DCTCP guest stack (Section 7): reduce the window in proportion to
          the fraction of marked bytes instead of halving *)
  dctcp_g : float;  (** DCTCP's EWMA gain (1/16 in the paper) *)
}

val default : t
(** mss 1400, min RTO 10 ms, max RTO 2 s, DCTCP off.  The initial
    window (10 packets) and the dupack threshold (3) are constants of
    {!Tcp}, and the guest always reacts to ECN. *)

val dctcp : t
(** [default] with the DCTCP congestion response enabled. *)
