(** The flowlet route shared by the in-switch schemes (LetFlow, CONGA,
    CAFT): each keeps only its chooser, and this module keeps the flowlet
    table, the flow key and the failure re-pick. *)

val leaf_of_host : Fabric.t -> int Int_table.t
(** Host node id -> the leaf it hangs off (its first live neighbor);
    hosts with no live neighbor are absent (the table's dummy is
    [-1]). *)

val table : Switch.t -> gap:Sim_time.span -> int Clove.Flowlet.t
(** An empty flowlet table of port ids on the switch's own clock: the
    fabric clock in serial builds, and shard-local under PDES. *)

val route :
  int Clove.Flowlet.t ->
  Packet.t ->
  candidates:int array ->
  choose:(unit -> int) ->
  int
(** The egress port of [pkt]'s flowlet.  [choose ()] picks the port when
    a new flowlet starts, and again when the flowlet's cached port is no
    longer among [candidates] (it failed since the decision). *)
