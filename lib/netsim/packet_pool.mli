(** Domain-local free-list pool for tenant packets.

    The TCP layer allocates a (packet, inner, segment) bundle per data
    segment and ACK; the destination vswitch releases the bundle back
    here once the transport stack has consumed it.  Acquire/release pairs
    make the simulator's hottest allocation site effectively
    allocation-free in steady state.

    The free list lives in [Domain.DLS], so each domain of a parallel
    sweep recycles only its own packets — no locks, no cross-domain
    aliasing. *)

val acquire_tenant :
  src:Addr.t ->
  dst:Addr.t ->
  conn_id:int ->
  subflow:int ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  kind:Packet.tcp_kind ->
  payload:int ->
  ece:bool ->
  Packet.t
(** A tenant packet with every field (re)initialized, recycled from the
    free list when possible and freshly allocated otherwise.
    Behaviorally identical to [Packet.make_tenant]. *)

val release : Packet.t -> unit
(** Return a tenant packet to the current domain's free list.  The caller
    must guarantee neither the packet nor its [inner] is referenced
    anywhere afterwards.  Non-tenant packets and double releases are
    ignored; releases beyond the per-domain cap are left to the GC. *)

type stats = {
  hits : int;  (** acquires served from the free list *)
  misses : int;  (** acquires that had to allocate *)
  dropped : int;  (** releases discarded because the list was full *)
  pooled : int;  (** packets currently in this domain's free list *)
}

val stats : unit -> stats
(** Counters for the calling domain. *)

val reset_stats : unit -> unit
(** Zero the calling domain's counters (the pooled packets stay). *)
