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

(* Flow keys are [Hashtbl.hash (src, dst, src_port, dst_port, subflow)]
   — they feed ECMP port choices and flowlet tables, i.e. the digests —
   computed here without the runtime's [caml_hash] call or a tuple:
   MurmurHash3's 32-bit mix of the block header (wosize 5, tag 0), then
   of each field as the runtime mixes an immediate, then its final mix,
   masked to 30 bits.  The 32-bit words are [Int32] locals, which
   ocamlopt keeps unboxed, so nothing is allocated and nothing needs
   masking (test_netsim pins the result against [Hashtbl.hash] of the
   tuple, across the whole int range). *)
let[@inline] rotl32 x n =
  Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

(* MurmurHash3's mix of [d] into [h] *)
let[@inline] mix h d =
  let d = Int32.mul (rotl32 (Int32.mul d 0xcc9e2d51l) 15) 0x1b873593l in
  Int32.add (Int32.mul (rotl32 (Int32.logxor h d) 13) 5l) 0xe6546b64l

(* [caml_hash_mix_intnat] of the immediate [n], whose machine word is
   [2n + 1]: its low 32 bits, xor its high 32 bits (bits 31..62 of [n]),
   xor its sign folded over 32 bits *)
let[@inline] mix_int h n = mix h (Int32.of_int (((n lsl 1) lor 1) lxor (n asr 31) lxor (n asr 62)))

let[@inline] final_mix h =
  let h = Int32.mul (Int32.logxor h (Int32.shift_right_logical h 16)) 0x85ebca6bl in
  let h = Int32.mul (Int32.logxor h (Int32.shift_right_logical h 13)) 0xc2b2ae35l in
  Int32.logxor h (Int32.shift_right_logical h 16)

(* the header of a 5-field block of tag 0 (wosize 5 lsl 10), as
   [caml_hash] mixes it *)
let tuple5_header = 0x1400l

let[@inline] hash5 a b c d e =
  let h = mix 0l tuple5_header in
  let h = mix_int (mix_int (mix_int (mix_int (mix_int h a) b) c) d) e in
  Int32.to_int (final_mix h) land 0x3FFF_FFFF

let tcp_flow_key inner =
  let s = inner.seg in
  hash5 (Addr.to_int inner.src) (Addr.to_int inner.dst) s.src_port s.dst_port s.subflow

let tcp_flow_key_rev inner =
  let s = inner.seg in
  hash5 (Addr.to_int inner.dst) (Addr.to_int inner.src) s.dst_port s.src_port s.subflow

let route_dst t =
  match (t.encap, t.payload) with
  | Some e, _ -> e.dst_hv
  | None, Tenant inner -> inner.dst
  | None, Probe p -> p.probe_dst
  | None, Probe_reply r -> r.reply_to
