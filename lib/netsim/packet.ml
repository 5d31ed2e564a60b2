type ecn = Not_ect | Ect | Ce

type tcp_kind = Data | Ack

type tcp_seg = {
  mutable conn_id : int;
  mutable subflow : int;
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack : int;
  mutable kind : tcp_kind;
  mutable payload : int;
  mutable ece : bool;
}

type inner = {
  mutable src : Addr.t;
  mutable dst : Addr.t;
  mutable inner_ecn : ecn;
  seg : tcp_seg;
}

type clove_feedback =
  | Fb_ecn of { port : int }
  | Fb_sample of { port : int; value : float }

type flowcell = { flow_key : int; cell_id : int; cell_seq : int }

type conga_md = {
  src_leaf : int;
  dst_leaf : int;
  mutable lbtag : int;
  mutable fb_lbtag : int;
  mutable fb_ce : float;
}

(* all-mutable so a packet's pre-boxed header (see [t.cached_encap]) can
   be rewritten in place on every transmit instead of allocating a fresh
   record per packet *)
type encap = {
  mutable src_hv : Addr.t;
  mutable dst_hv : Addr.t;
  mutable src_port : int;
  mutable dst_port : int;
  mutable feedback : clove_feedback option;
  mutable cell : flowcell option;
}

type probe_info = {
  probe_id : int;
  probe_src : Addr.t;
  probe_dst : Addr.t;
  probe_port : int;
}

type hop = { hop_node : int; hop_port : int }

type probe_reply = {
  reply_to : Addr.t;
  reply_probe_id : int;
  reply_port : int;
  reply_ttl : int;
  reply_hop : hop option;
}

type payload =
  | Tenant of inner
  | Probe of probe_info
  | Probe_reply of probe_reply

type t = {
  mutable size : int;
  mutable ttl : int;
  mutable ecn : ecn;
  mutable encap : encap option;
  mutable conga : conga_md option;
  mutable int_enabled : bool;
  mutable int_util : float;
  mutable sent_at : Sim_time.t;
  mutable audit_seq : int;
  payload : payload;
  (* pre-boxed encapsulation header owned by this packet, plus the one
     [Some] pointing at it: {!install_encap} rewrites the header fields
     in place and re-installs the cached option, so per-transmit
     encapsulation allocates nothing.  Attached to the packet (not the
     pool) because PDES migrates packets between domains: the header
     must travel with its packet. *)
  cached_encap : encap;
  cached_encap_some : encap option;
}

let stt_port = 7471
let inner_header_bytes = 40
let encap_header_bytes = 58
let fresh_encap () =
  let a = Addr.of_int 0 in
  {
    src_hv = a;
    dst_hv = a;
    src_port = 0;
    dst_port = 0;
    feedback = None;
    cell = None;
  }

let make ?(ttl = 64) ~size payload =
  let cached_encap = fresh_encap () in
  {
    size;
    ttl;
    ecn = Not_ect;
    encap = None;
    conga = None;
    int_enabled = false;
    int_util = 0.0;
    sent_at = Sim_time.zero;
    audit_seq = -1;
    payload;
    cached_encap;
    cached_encap_some = Some cached_encap;
  }

(* Rewrite the packet's own pre-boxed header in place and install it —
   the steady-state encapsulation path allocates nothing.  [dst_port] is
   always the STT port on this path; traceroute probes (which vary it)
   build their headers cold. *)
let install_encap t ~src_hv ~dst_hv ~src_port ~feedback ~cell =
  let e = t.cached_encap in
  e.src_hv <- src_hv;
  e.dst_hv <- dst_hv;
  e.src_port <- src_port;
  e.dst_port <- stt_port;
  e.feedback <- feedback;
  e.cell <- cell;
  t.encap <- t.cached_encap_some

(* pads rings and in-flight slots on the defunctionalized event path *)
let placeholder =
  let a = Addr.of_int 0 in
  let cached_encap = fresh_encap () in
  {
    size = 0;
    ttl = 0;
    ecn = Not_ect;
    encap = None;
    conga = None;
    int_enabled = false;
    int_util = 0.0;
    sent_at = Sim_time.zero;
    audit_seq = -1;
    payload = Probe { probe_id = -1; probe_src = a; probe_dst = a; probe_port = -1 };
    cached_encap;
    cached_encap_some = Some cached_encap;
  }

let make_tenant ~src ~dst ~(seg : tcp_seg) =
  let size = seg.payload + inner_header_bytes in
  make ~size (Tenant { src; dst; inner_ecn = Not_ect; seg })

(* Flow keys hash the 5-tuple through a reusable scratch record instead
   of allocating a fresh tuple per call.  A mutable record of five
   immediate ints has the same runtime representation as a 5-tuple of
   ints (tag 0, five immediate fields), and [Hashtbl.hash] is purely
   structural, so the key values — which feed ECMP port choices and
   flowlet tables, i.e. the digests — are bit-identical to the tuple
   version (asserted in test/test_netsim.ml).  Domain-local because
   parallel sweeps hash on several domains at once. *)
(* fields are written then consumed structurally by [Hashtbl.hash],
   never read individually — hence the warning suppression *)
type flow_key_scratch = {
  mutable fk_a : int; [@warning "-69"]
  mutable fk_b : int; [@warning "-69"]
  mutable fk_c : int; [@warning "-69"]
  mutable fk_d : int; [@warning "-69"]
  mutable fk_e : int; [@warning "-69"]
}
[@@warning "-69"]

let flow_key_key =
  Domain.DLS.new_key (fun () ->
      { fk_a = 0; fk_b = 0; fk_c = 0; fk_d = 0; fk_e = 0 })

let tcp_flow_key inner =
  let s = inner.seg in
  let k = Domain.DLS.get flow_key_key in
  k.fk_a <- Addr.to_int inner.src;
  k.fk_b <- Addr.to_int inner.dst;
  k.fk_c <- s.src_port;
  k.fk_d <- s.dst_port;
  k.fk_e <- s.subflow;
  (* ECMP and flowlet state, and so every digest, are keyed on this
     generic hash — lint: allow poly-compare *)
  Hashtbl.hash k

let tcp_flow_key_rev inner =
  let s = inner.seg in
  let k = Domain.DLS.get flow_key_key in
  k.fk_a <- Addr.to_int inner.dst;
  k.fk_b <- Addr.to_int inner.src;
  k.fk_c <- s.dst_port;
  k.fk_d <- s.src_port;
  k.fk_e <- s.subflow;
  (* ECMP and flowlet state, and so every digest, are keyed on this
     generic hash — lint: allow poly-compare *)
  Hashtbl.hash k

let route_dst t =
  match (t.encap, t.payload) with
  | Some e, _ -> e.dst_hv
  | None, Tenant inner -> inner.dst
  | None, Probe p -> p.probe_dst
  | None, Probe_reply r -> r.reply_to
