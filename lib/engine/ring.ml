(* Growable circular FIFO, padded with a caller-supplied dummy.

   Backs the defunctionalized event path: a link's in-flight propagation
   queue delivers strictly in FIFO order (constant per-hop delay), so the
   packet a tagged event refers to is always the oldest queued one — no
   per-event closure capture needed.
   [push]/[pop] allocate nothing once the ring has grown to its
   steady-state size.  The capacity is a power of two, so wrapping an
   index is a mask, not a division. *)

type 'a t = {
  mutable buf : 'a array; (* length is a power of two *)
  dummy : 'a;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let rec pow2_above n c = if c >= n then c else pow2_above n (2 * c)

let create ?(capacity = 16) ~dummy () =
  { buf = Array.make (pow2_above capacity 1) dummy; dummy; head = 0; len = 0 }

let grow t =
  let cap = Array.length t.buf in
  (* amortized doubling: O(log n) times per ring, never in steady state — lint: allow alloc-array *)
  let buf = Array.make (2 * cap) t.dummy in
  let first = cap - t.head in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first t.head;
  t.buf <- buf;
  t.head <- 0

let push t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  v

let length t = t.len
