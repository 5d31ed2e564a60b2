(* The (time, born, src, seq) event order, and an unboxed
   structure-of-arrays binary min-heap under it.

   Events order by (time, born, src, seq): [born] is the simulation
   instant the event was inserted at and [src] is a global id of the
   component the event belongs to.  Both exist to make same-timestamp
   ties shard-invariant under PDES: a boundary event carries the
   *sending* shard's insertion instant across the partition, so a tie
   between an injected delivery and a locally scheduled event resolves
   by insertion instant exactly as it would have in a single-scheduler
   run — and when even the insertion instants coincide (two links
   completing a transmission in the same nanosecond), the component id
   decides, which depends only on construction order, not on which
   scheduler happened to insert first.  The residual [seq] tie-break
   then only ever compares events of one component inserted in one
   instant — program order, identical at any shard count.  [lt] is the
   one comparator of that order: the timer wheel, the scheduler's one
   store, sorts its run by it.

   The heap is off the simulator's path.  It is the subject of
   perfbench's [engine.event_queue_ns] microbenchmark and test_engine's
   bare-heap reference for the wheel's pop order.  Times, insertion
   instants, component ids and sequence numbers live in [int array]s
   and payloads in a plain ['a array] padded with a caller-supplied
   [dummy], so [add] allocates nothing and [pop] only its
   [Some (time, value)] result.  The [dummy] fills slots above [size]
   so vacated payloads are released to the GC without an [option]
   box. *)

type tiebreak = Fifo | Lifo

type 'a t = {
  mutable times : int array; (* event time in ns *)
  mutable borns : int array; (* insertion instant in ns, first tie-break *)
  mutable srcs : int array; (* owning component id, second tie-break *)
  mutable seqs : int array; (* insertion sequence, final tie-break *)
  mutable values : 'a array;
  dummy : 'a;
  fifo : bool; (* the residual tie-break: schedule order, or its reverse *)
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 256) ?(tiebreak = Fifo) ~dummy () =
  let capacity = Int.max capacity 1 in
  {
    times = Array.make capacity 0;
    borns = Array.make capacity 0;
    srcs = Array.make capacity 0;
    seqs = Array.make capacity 0;
    values = Array.make capacity dummy;
    dummy;
    fifo = (match tiebreak with Fifo -> true | Lifo -> false);
    size = 0;
    next_seq = 0;
  }

(* Same-(time, born, src) events fire in schedule order (FIFO on [seq]).
   The schedule-perturbation check builds queues with that residual
   tie-break reversed to show nothing depends on it; it is fixed at
   [create], so the heap invariant always sees one comparator.  The
   [int] annotation keeps every compare a machine instruction rather
   than a call to the generic structural compare. *)
let[@inline] lt ~fifo (t1 : int) (b1 : int) (c1 : int) (s1 : int) t2 b2 c2 s2 =
  if t1 <> t2 then t1 < t2
  else if b1 <> b2 then b1 < b2
  else if c1 <> c2 then c1 < c2
  else if fifo then s1 < s2
  else s1 > s2

(* [a] doubled, its entries kept *)
let double a fill =
  let n = Array.length a in
  (* amortized doubling: O(log n) times per queue, never in steady state — lint: allow alloc-array *)
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

(* called when full *)
let grow t =
  t.times <- double t.times 0;
  t.borns <- double t.borns 0;
  t.srcs <- double t.srcs 0;
  t.seqs <- double t.seqs 0;
  t.values <- double t.values t.dummy

(* copy entry [src] over entry [dst] *)
let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.borns.(dst) <- t.borns.(src);
  t.srcs.(dst) <- t.srcs.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.values.(dst) <- t.values.(src)

let[@inline] set t i ~time ~born ~src ~seq value =
  t.times.(i) <- time;
  t.borns.(i) <- born;
  t.srcs.(i) <- src;
  t.seqs.(i) <- seq;
  t.values.(i) <- value

(* Hole-based sift-up from slot [i]: move heavier parents down and
   return the slot the carried key (time, born, src, seq) belongs in. *)
let rec sift_up t ~fifo i time born src seq =
  if i = 0 then i
  else begin
    let p = (i - 1) / 2 in
    if lt ~fifo time born src seq t.times.(p) t.borns.(p) t.srcs.(p) t.seqs.(p)
    then begin
      move t ~src:p ~dst:i;
      sift_up t ~fifo p time born src seq
    end
    else i
  end

(* Hole-based sift-down from slot [i] over the first [n] entries: move
   lighter children up and return the slot the carried key belongs in. *)
let rec sift_down t ~fifo n i time born src seq =
  let l = (2 * i) + 1 in
  if l >= n then i
  else begin
    let r = l + 1 in
    let c =
      if
        r < n
        && lt ~fifo t.times.(r) t.borns.(r) t.srcs.(r) t.seqs.(r) t.times.(l)
             t.borns.(l) t.srcs.(l) t.seqs.(l)
      then r
      else l
    in
    if lt ~fifo t.times.(c) t.borns.(c) t.srcs.(c) t.seqs.(c) time born src seq
    then begin
      move t ~src:c ~dst:i;
      sift_down t ~fifo n c time born src seq
    end
    else i
  end

(* [add_at_ns] takes the caller's key, as the scheduler ranks its
   events; [add] below sequences its own, for the microbenchmark. *)
let add_at_ns t ~time_ns:time ~born_ns:born ~src ~seq value =
  if t.size = Array.length t.times then grow t;
  let i = sift_up t ~fifo:t.fifo t.size time born src seq in
  t.size <- t.size + 1;
  set t i ~time ~born ~src ~seq value

let add t ~time value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* standalone users get the historical pure (time, seq) order *)
  add_at_ns t ~time_ns:(Sim_time.to_ns time) ~born_ns:0 ~src:0 ~seq value

(* re-seat the entry at [from] by sifting it down from slot [i] over the
   first [n] entries *)
let[@inline] reseat t ~fifo n ~from i =
  let time = t.times.(from)
  and born = t.borns.(from)
  and src = t.srcs.(from)
  and seq = t.seqs.(from)
  and value = t.values.(from) in
  let j = sift_down t ~fifo n i time born src seq in
  set t j ~time ~born ~src ~seq value

(* The last entry is re-seated at the root and its hole sifted down. *)
let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) and top = t.values.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then reseat t ~fifo:t.fifo n ~from:n 0;
    (* release the vacated payload slot for GC *)
    t.values.(n) <- t.dummy;
    Some (Sim_time.of_ns time, top)
  end
