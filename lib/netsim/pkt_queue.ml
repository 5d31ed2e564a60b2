type stats = {
  enqueued : int;
  dropped : int;
  dropped_bytes : int;
  marked : int;
  max_occupancy : int;
}

(* admission and accounting only: the frames themselves sit in their
   link's ring, so a hop writes each packet pointer once *)
type t = {
  capacity : int;
  ecn_threshold : int;
  mutable len : int; (* admitted frames that have not left *)
  mutable enqueued : int;
  mutable dropped : int;
  mutable dropped_bytes : int;
  mutable marked : int;
  mutable max_occupancy : int;
}

let create ?(capacity_pkts = 256) ?(ecn_threshold_pkts = 20) () =
  if capacity_pkts < 1 then invalid_arg "Pkt_queue.create: capacity < 1";
  {
    capacity = capacity_pkts;
    ecn_threshold = ecn_threshold_pkts;
    len = 0;
    enqueued = 0;
    dropped = 0;
    dropped_bytes = 0;
    marked = 0;
    max_occupancy = 0;
  }

let length t = t.len

let admit t pkt =
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
    (* DCTCP-style instantaneous marking: mark if occupancy after
       admission exceeds the threshold *)
    let len = t.len + 1 in
    (if t.ecn_threshold > 0 && len > t.ecn_threshold then
       match pkt.Packet.ecn with
       | Packet.Ect ->
         pkt.Packet.ecn <- Packet.Ce;
         t.marked <- t.marked + 1
       | Packet.Ce | Packet.Not_ect -> ());
    t.len <- len;
    t.enqueued <- t.enqueued + 1;
    if len > t.max_occupancy then t.max_occupancy <- len;
    true
  end

let leave t =
  if t.len = 0 then invalid_arg "Pkt_queue.leave: empty";
  t.len <- t.len - 1

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
