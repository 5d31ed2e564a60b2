(** Presto receiver-side flowcell reassembly.

    The source sprays 64 KB flowcells over distinct paths, so packets of
    one flow can arrive interleaved across cells.  This shim sits below the
    guest TCP receiver and restores per-flow packet order using the
    (flow key, cell id, per-flow packet sequence) tag the Presto sender
    writes into the encapsulation header.  Out-of-order packets are
    buffered until the hole fills; a static timeout (and a buffer cap)
    bounds the wait when packets were actually lost, after which buffered
    packets are released in order and TCP's own loss recovery takes over —
    this mirrors the reassembly logic described in Sections 4–5. *)

type t

val create :
  sched:Scheduler.t ->
  cfg:Clove_config.t ->
  deliver:(Packet.inner -> unit) ->
  t

val on_packet : t -> Packet.inner -> cell:Packet.flowcell -> unit
(* oracle of test_clove's presto_rx passthrough and reorders — lint: allow dead-export *)
val buffered : t -> int
(** Packets currently held across all flows. *)

(* oracle of the presto_rx flush cases in test_clove, test_coverage — lint: allow dead-export *)
val timeout_flushes : t -> int
(* oracle of test_clove's presto_rx reorders — lint: allow dead-export *)
val reordered : t -> int
(** Packets that arrived ahead of a hole and had to be buffered. *)
