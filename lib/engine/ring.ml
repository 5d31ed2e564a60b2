(* Growable circular FIFO, padded with a caller-supplied dummy.

   Backs a link's frames: admitted at the tail, delivered from the head
   in FIFO order (constant per-hop delay), so the frame a tagged event
   refers to is always the oldest one — no per-event closure capture
   needed.  A link reads and rewrites the frames between the head and
   the tail by their position ([get]/[set]) and drops a tail
   ([truncate]).  Nothing allocates once the ring has grown to its
   steady-state size.  It doubles while small, then grows by half: a
   link's ring holds a full 256-frame queue plus the frames on the wire,
   and doubling there would allocate twice what it keeps (on incast,
   doubling to 512 raised the peak heap by 15%). *)

type 'a t = {
  mutable buf : 'a array;
  dummy : 'a;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let create ?(capacity = 16) ~dummy () =
  { buf = Array.make (Int.max capacity 1) dummy; dummy; head = 0; len = 0 }

(* the buffer index [i] slots past [j], for [i], [j] below the capacity:
   a compare, not a division *)
let wrap t j i =
  let k = j + i and cap = Array.length t.buf in
  if k >= cap then k - cap else k

let grow t =
  let cap = Array.length t.buf in
  let cap' = if cap < 128 then 2 * cap else cap + (cap / 2) in
  (* amortized geometric growth: O(log n) times per ring, never in steady state — lint: allow alloc-array *)
  let buf = Array.make cap' t.dummy in
  let first = cap - t.head in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first t.head;
  t.buf <- buf;
  t.head <- 0

let push t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.(wrap t t.head t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ring.pop: empty";
  let v = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- wrap t t.head 1;
  t.len <- t.len - 1;
  v

(* the slot of the [i]-th oldest element *)
let slot t i =
  if i < 0 || i >= t.len then invalid_arg "Ring: index out of range";
  wrap t t.head i

let get t i = t.buf.(slot t i)
let set t i v = t.buf.(slot t i) <- v

let rec truncate t n =
  if n < 0 then invalid_arg "Ring.truncate: negative length";
  if t.len > n then begin
    t.len <- t.len - 1;
    t.buf.(wrap t t.head t.len) <- t.dummy;
    truncate t n
  end

let length t = t.len
