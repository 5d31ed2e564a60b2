(* Demux tables are flat {!Int_table}s keyed by the (conn_id, subflow)
   pair packed into one int: [deliver] runs once per delivered packet,
   and the stdlib [Hashtbl] version allocated a fresh tuple key plus a
   [Some] witness per lookup.  Values are stored as [_ option] (the
   table's dummy is [None]) because no dummy sender/receiver exists; the
   [Some] is allocated once at registration, never on lookup. *)

type t = {
  senders : Tcp.sender option Int_table.t;
  receivers : Tcp.receiver option Int_table.t;
  by_dst : Tcp.sender list Int_table.t; (* dst addr -> its senders *)
  mutable unknown : int;
}

let create () =
  {
    senders = Int_table.create ~capacity:32 ~dummy:None;
    receivers = Int_table.create ~capacity:32 ~dummy:None;
    by_dst = Int_table.create ~capacity:8 ~dummy:[];
    unknown = 0;
  }

(* subflow ids are tiny (MPTCP fans out to a handful of paths); packing
   them into the low 16 bits keeps ascending packed-key order identical
   to the old lexicographic (conn_id, subflow) order, which [stop_all]
   and [senders] expose *)
let subflow_bits = 16

let pack_key ~conn_id ~subflow = (conn_id lsl subflow_bits) lor subflow

let check_key ~conn_id ~subflow =
  if conn_id < 0 || subflow < 0 || subflow >= 1 lsl subflow_bits then
    invalid_arg "Stack: conn_id must be >= 0 and subflow in [0, 65535]"

let register_sender t s =
  let conn_id = Tcp.conn_id s and subflow = Tcp.subflow_id s in
  check_key ~conn_id ~subflow;
  Int_table.set t.senders (pack_key ~conn_id ~subflow) (Some s);
  let key = Addr.to_int (Tcp.dst s) in
  Int_table.set t.by_dst key (s :: Int_table.find_default t.by_dst key [])

let register_receiver t r =
  let conn_id = Tcp.conn_id_r r and subflow = Tcp.subflow_id_r r in
  check_key ~conn_id ~subflow;
  Int_table.set t.receivers (pack_key ~conn_id ~subflow) (Some r)

let deliver t (inner : Packet.inner) =
  let seg = inner.Packet.seg in
  let key = pack_key ~conn_id:seg.Packet.conn_id ~subflow:seg.Packet.subflow in
  match seg.Packet.kind with
  | Packet.Data -> (
    match Int_table.find_default t.receivers key None with
    | Some r -> Tcp.on_data r inner
    | None -> t.unknown <- t.unknown + 1)
  | Packet.Ack -> (
    match Int_table.find_default t.senders key None with
    | Some s -> Tcp.on_ack s seg
    | None -> t.unknown <- t.unknown + 1)

let ecn_signal_all t ~dst =
  List.iter Tcp.ecn_signal (Int_table.find_default t.by_dst (Addr.to_int dst) [])

let senders t =
  (* ascending packed keys with prepend: descending (conn_id, subflow),
     the order the Hashtbl-based version produced *)
  List.fold_left
    (fun acc k ->
      match Int_table.find_default t.senders k None with
      | Some s -> s :: acc
      | None -> acc)
    []
    (Int_table.sorted_keys t.senders)

let unknown_drops t = t.unknown

let stop_all t =
  Int_table.iter_sorted
    (fun _ s -> match s with Some s -> Tcp.stop s | None -> ())
    t.senders
