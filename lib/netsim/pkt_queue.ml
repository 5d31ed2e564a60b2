type stats = {
  enqueued : int;
  dropped : int;
  dropped_bytes : int;
  marked : int;
  max_occupancy : int;
}

type t = {
  (* circular buffer, not [Queue.t]: stdlib Queue allocates a cons cell
     per enqueue, which at one enqueue per packet per hop was among the
     last per-packet allocations on the forwarding path *)
  q : Packet.t Ring.t;
  capacity : int;
  ecn_threshold : int;
  (* cached [Queue.length t.q]: the enqueue fast path is hot enough that
     three O(1)-but-not-free length reads per packet showed up in
     profiles *)
  mutable len : int;
  mutable bytes : int;
  mutable enqueued : int;
  mutable dropped : int;
  mutable dropped_bytes : int;
  mutable marked : int;
  mutable max_occupancy : int;
}

let create ?(capacity_pkts = 256) ?(ecn_threshold_pkts = 20) () =
  if capacity_pkts < 1 then invalid_arg "Pkt_queue.create: capacity < 1";
  {
    q = Ring.create ~capacity:16 ~dummy:Packet.placeholder ();
    capacity = capacity_pkts;
    ecn_threshold = ecn_threshold_pkts;
    len = 0;
    bytes = 0;
    enqueued = 0;
    dropped = 0;
    dropped_bytes = 0;
    marked = 0;
    max_occupancy = 0;
  }

let length t = t.len
let byte_length t = t.bytes
let is_empty t = t.len = 0

let enqueue t pkt =
  if t.len >= t.capacity then begin
    (* account the drop path like the accept path: the queue stood at
       full occupancy at this instant, and the lost bytes are tracked so
       occupancy and loss stats agree with the byte counters *)
    t.dropped <- t.dropped + 1;
    t.dropped_bytes <- t.dropped_bytes + pkt.Packet.size;
    if t.len > t.max_occupancy then t.max_occupancy <- t.len;
    false
  end
  else begin
    (* DCTCP-style instantaneous marking: mark if occupancy after enqueue
       exceeds the threshold *)
    let len = t.len + 1 in
    (if t.ecn_threshold > 0 && len > t.ecn_threshold then
       match pkt.Packet.ecn with
       | Packet.Ect ->
         pkt.Packet.ecn <- Packet.Ce;
         t.marked <- t.marked + 1
       | Packet.Ce | Packet.Not_ect -> ());
    Ring.push t.q pkt;
    t.len <- len;
    t.bytes <- t.bytes + pkt.Packet.size;
    t.enqueued <- t.enqueued + 1;
    if len > t.max_occupancy then t.max_occupancy <- len;
    true
  end

(* option-free dequeue for the serializer hot loop: the caller checks
   [is_empty] first (mirrors [Event_queue.pop_unsafe]) *)
let dequeue_unsafe t =
  let pkt = Ring.pop t.q in
  t.len <- t.len - 1;
  t.bytes <- t.bytes - pkt.Packet.size;
  pkt

let dequeue t = if t.len = 0 then None else Some (dequeue_unsafe t)

let count_drop t pkt =
  t.dropped <- t.dropped + 1;
  t.dropped_bytes <- t.dropped_bytes + pkt.Packet.size

let stats t =
  {
    enqueued = t.enqueued;
    dropped = t.dropped;
    dropped_bytes = t.dropped_bytes;
    marked = t.marked;
    max_occupancy = t.max_occupancy;
  }

let capacity t = t.capacity
