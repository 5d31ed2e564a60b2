(** Traceroute path-discovery daemon (Section 3.1).

    For each active destination hypervisor the daemon periodically sends
    probes with randomized encapsulation source ports; each probe is a
    series of packets with the same source port and incrementing TTL.
    Fabric switches answer expired probes with the identity of the ingress
    interface (ICMP time-exceeded); the destination hypervisor answers
    probes that reach it.  The per-port hop lists are assembled into paths,
    the greedy disjoint-path heuristic keeps up to [k_paths] of them, and
    the result is handed to the path table.  Currently-installed ports are
    re-traced every cycle so topology changes are detected. *)

type t

val create :
  sched:Scheduler.t ->
  cfg:Clove_config.t ->
  rng:Rng.t ->
  host_addr:Addr.t ->
  tx:(Packet.t -> unit) ->
  on_paths:(dst:Addr.t -> (int * Clove_path.t) list -> unit) ->
  t

val add_destination : t -> Addr.t -> unit
(** Start probing a destination; idempotent.  The first cycle begins after
    a deterministic per-destination jitter below half the 10 ms probe
    timeout (so simultaneously-started daemons do not emit synchronized
    probe storms); results arrive one probe timeout after the cycle
    starts. *)

val on_reply : t -> Packet.probe_reply -> unit
(** Feed a probe reply received by the virtual switch. *)

val answer_probe : remaining_ttl:int -> Packet.probe_info -> Packet.t
(** Build the destination-reached reply for a probe that arrived at this
    hypervisor. *)

val stop : t -> unit
