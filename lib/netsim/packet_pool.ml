(* Array-stack arena for tenant packets.

   Every data segment and ACK in a run is a fresh three-block allocation
   (Packet.t + inner + tcp_seg) that dies one hop later when the
   destination vswitch hands it to the transport stack.  Recycling those
   bundles removes the dominant minor-heap churn of the event loop.

   The free set is a stack of packet slots in a pre-sized array — LIFO,
   so the hottest (cache-warm) bundle is reused first.  The previous
   implementation kept a [Packet.t list], which allocated a 3-word cons
   cell on every release: on a path recycled millions of times per run
   the bookkeeping itself was a measurable fraction of the allocation
   the pool exists to remove.  A slot push is now two stores.

   The arena is domain-local ([Domain.DLS]) so parallel sweeps never
   contend or leak packets across simulations running on different
   domains.  Under PDES a packet acquired on one domain may be released
   on another (data packets migrate across shard boundaries); slots
   carry no domain identity, so a migrated packet simply joins the
   releasing domain's arena — the arena cap bounds memory either way.

   Correctness invariants:
   - [acquire_tenant] resets every mutable field, so a recycled packet
     is indistinguishable from [Packet.make_tenant]'s output.
   - [release] must only be called once the packet and its inner are
     provably dead: the vswitch releases on the two [Stack.deliver]
     paths, but NOT on the flowcell path, where [Presto_rx] retains the
     inner in its reorder buffer.
   - a sentinel [audit_seq] marks pooled packets so a double [release]
     is ignored rather than corrupting the arena (the auditor only ever
     stamps sequences >= 0, and live packets use -1). *)

type pool = {
  mutable slots : Packet.t array; (* free stack; placeholder pads unused *)
  mutable len : int;
  mutable hits : int;
  mutable misses : int;
  mutable dropped : int;
}

type stats = { hits : int; misses : int; dropped : int; pooled : int }

(* per-domain cap; beyond it released packets are left to the GC *)
let max_pooled = 8192

(* [audit_seq] value marking a packet as sitting in the arena *)
let pooled_sentinel = min_int

let key =
  Domain.DLS.new_key (fun () ->
      {
        slots = Array.make 256 Packet.placeholder;
        len = 0;
        hits = 0;
        misses = 0;
        dropped = 0;
      })

let stats () =
  let p = Domain.DLS.get key in
  { hits = p.hits; misses = p.misses; dropped = p.dropped; pooled = p.len }

let reset_stats () =
  let p = Domain.DLS.get key in
  p.hits <- 0;
  p.misses <- 0;
  p.dropped <- 0

let acquire_tenant ~src ~dst ~conn_id ~subflow ~src_port ~dst_port ~seq ~ack
    ~kind ~payload ~ece =
  let p = Domain.DLS.get key in
  if p.len > 0 then begin
    let n = p.len - 1 in
    p.len <- n;
    let pkt = p.slots.(n) in
    p.slots.(n) <- Packet.placeholder;
    p.hits <- p.hits + 1;
    match pkt.Packet.payload with
    | Packet.Tenant inner ->
      let s = inner.Packet.seg in
      s.Packet.conn_id <- conn_id;
      s.Packet.subflow <- subflow;
      s.Packet.src_port <- src_port;
      s.Packet.dst_port <- dst_port;
      s.Packet.seq <- seq;
      s.Packet.ack <- ack;
      s.Packet.kind <- kind;
      s.Packet.payload <- payload;
      s.Packet.ece <- ece;
      inner.Packet.src <- src;
      inner.Packet.dst <- dst;
      inner.Packet.inner_ecn <- Packet.Not_ect;
      pkt.Packet.size <- payload + Packet.inner_header_bytes;
      pkt.Packet.ttl <- 64;
      pkt.Packet.ecn <- Packet.Not_ect;
      pkt.Packet.encap <- None;
      pkt.Packet.conga <- None;
      pkt.Packet.int_enabled <- false;
      pkt.Packet.int_util <- 0.0;
      pkt.Packet.sent_at <- Sim_time.zero;
      pkt.Packet.audit_seq <- -1;
      pkt
    | Packet.Probe _ | Packet.Probe_reply _ ->
      (* unreachable: only tenant packets are ever released *)
      assert false
  end
  else begin
    p.misses <- p.misses + 1;
    Packet.make_tenant ~src ~dst
      ~seg:
        {
          Packet.conn_id;
          subflow;
          src_port;
          dst_port;
          seq;
          ack;
          kind;
          payload;
          ece;
        }
  end

let grow p =
  let cap = Array.length p.slots in
  let slots = Array.make (Int.min (2 * cap) max_pooled) Packet.placeholder in
  Array.blit p.slots 0 slots 0 p.len;
  p.slots <- slots

let release pkt =
  match pkt.Packet.payload with
  | Packet.Tenant _ when pkt.Packet.audit_seq <> pooled_sentinel ->
    let p = Domain.DLS.get key in
    if p.len < max_pooled then begin
      pkt.Packet.audit_seq <- pooled_sentinel;
      (* drop header state now so the pooled packet pins nothing — the
         pre-boxed encap stays attached but its option fields must not
         keep feedback/cell records alive across the arena *)
      pkt.Packet.encap <- None;
      pkt.Packet.conga <- None;
      let e = pkt.Packet.cached_encap in
      e.Packet.feedback <- None;
      e.Packet.cell <- None;
      if p.len = Array.length p.slots then grow p;
      p.slots.(p.len) <- pkt;
      p.len <- p.len + 1
    end
    else p.dropped <- p.dropped + 1
  | Packet.Tenant _ | Packet.Probe _ | Packet.Probe_reply _ -> ()
