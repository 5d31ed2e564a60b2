(* Hierarchical timing wheel and its sorted run: the scheduler's one
   store of pending events.

   The wheel is a set of [levels] rings of [2^bits] slots each; a level-k
   slot spans [2^(g_bits + k*bits)] ns, so with 3 levels of 256 slots at
   64 ns granularity the wheel covers ~1.07 s of simulated future —
   every link hop and TCP RTO/TLP the simulator arms.  [add] takes every
   event: one behind the frontier is seated straight into the run, one
   past the horizon is parked in the top level's farthest slot and
   placed again when that slot cascades.

   A slot holds unsorted (time, born, src, seq, payload) entries packed
   five ints apiece in one growable [int array]: the payload is the
   scheduler's immediate event code, so staging an entry writes no
   pointer.

   Once the run is empty, [load] moves the earliest occupied level-0
   window, whole, into it: one [int array] of five-int entries,
   insertion-sorted by (time, born, src, seq) under {!Event_queue.lt}.
   The frontier then lies past every loaded window, so every entry
   still staged is later than every entry of the run, and popping the
   run's head pops in exactly the order of one binary heap.  An entry
   added behind the frontier belongs among the run's entries; the same
   insertion sort seats it there, never before the run's head.  The
   wheel never reorders, delays, or drops an event.

   [load] skips runs of empty slots via a per-level occupancy bitmap
   (32 slots per word, find-first-set) instead of stepping the frontier
   one granule at a time across idle gaps or reading up to
   [levels * 2^bits] slot lengths per hop. *)

type slot = {
  mutable data : int array; (* [stride] ints per entry, see [slot_push] *)
  mutable len : int; (* entries *)
}

let stride = 5
let bits = 8 (* log2 slots per level *)
let g_bits = 6 (* log2 of level-0 slot span, ns *)
let levels = 3

type t = {
  slots : slot array; (* levels * 2^bits, level-major *)
  (* per-level slot-occupancy bitmap, 32 bits per word: bit [i land 31]
     of [occ.(level * occ_words + (i lsr 5))] is set iff ring slot [i]
     of that level is non-empty.  [next_occupied_window] runs once per
     loaded window on the scheduler's hot path; scanning a handful of
     words beats reading up to [2^bits] slot lengths per level *)
  occ : int array;
  mutable frontier : int; (* absolute ns, multiple of 2^g_bits *)
  mutable count : int; (* staged entries, the run's excluded *)
  fifo : bool; (* the run's residual tie-break, as a heap's *)
  (* the run: [stride] ints per entry, sorted; entries [head, tail) of
     it (offsets in ints) are not yet popped, and [tail] is 0 iff none
     is left *)
  mutable run : int array;
  mutable head : int;
  mutable tail : int;
}

let occ_words = (1 lsl bits) lsr 5 (* words per level; power of two *)

let create ~tiebreak =
  {
    slots = Array.init (levels lsl bits) (fun _ -> { data = [||]; len = 0 });
    occ = Array.make (levels * occ_words) 0;
    frontier = 0;
    count = 0;
    fifo = (match tiebreak with Event_queue.Fifo -> true | Event_queue.Lifo -> false);
    run = Array.make (16 * stride) 0;
    head = 0;
    tail = 0;
  }

(* [idx] is the level-major slot index (level lsl bits) lor ring *)
let[@inline] occ_set t idx =
  let level = idx lsr bits and ring = idx land ((1 lsl bits) - 1) in
  let wi = (level * occ_words) + (ring lsr 5) in
  t.occ.(wi) <- t.occ.(wi) lor (1 lsl (ring land 31))

let[@inline] occ_clear t idx =
  let level = idx lsr bits and ring = idx land ((1 lsl bits) - 1) in
  let wi = (level * occ_words) + (ring lsr 5) in
  t.occ.(wi) <- t.occ.(wi) land lnot (1 lsl (ring land 31))

let size t = t.count + ((t.tail - t.head) / stride)

(* ns span of one level-k slot, as a shift *)
let[@inline] shift k = g_bits + (k * bits)

let slot_push t idx ~time_ns ~born_ns ~src ~seq v =
  let s = t.slots.(idx) in
  let o = s.len * stride in
  if o = Array.length s.data then begin
    (* amortized doubling: O(log n) times per slot, never in steady state — lint: allow alloc-array *)
    let data = Array.make (if o = 0 then 4 * stride else 2 * o) 0 in
    Array.blit s.data 0 data 0 o;
    s.data <- data
  end;
  let d = s.data in
  d.(o) <- time_ns;
  d.(o + 1) <- born_ns;
  d.(o + 2) <- src;
  d.(o + 3) <- seq;
  d.(o + 4) <- v;
  if s.len = 0 then occ_set t idx;
  s.len <- s.len + 1

(* Place at the smallest level whose live window reaches [time_ns]: level
   k accepts times at most [2^bits] level-k slots ahead of the frontier's
   slot.  A time sharing the frontier's level-k slot (k > 0) always fits
   a lower level, since one level-k slot spans a whole level-(k-1) ring —
   so the slot the frontier sits in is empty at every level above 0,
   which is what lets [load] jump the frontier across idle gaps.  A time
   past the top level's window is parked in that level's farthest slot,
   whose window the frontier reaches before the time; [false] then. *)
let rec place t ~time_ns ~born_ns ~src ~seq v k =
  let sh = shift k in
  let mask = (1 lsl bits) - 1 in
  let ahead = (time_ns lsr sh) - (t.frontier lsr sh) in
  if ahead <= mask || k = levels - 1 then begin
    let idx = (k lsl bits) lor (((t.frontier lsr sh) + Int.min ahead mask) land mask) in
    slot_push t idx ~time_ns ~born_ns ~src ~seq v;
    ahead <= mask
  end
  else place t ~time_ns ~born_ns ~src ~seq v (k + 1)

(* a de Bruijn sequence B(2, 5): the top 5 bits of the 32-bit word
   [debruijn lsl i] differ for every i in 0..31; [ctz_table] maps them
   back to i *)
let debruijn = 0x077CB531
let ctz_table =
  let b = Bytes.make 32 '\000' in
  for i = 0 to 31 do
    Bytes.set b (((debruijn lsl i) land 0xFFFFFFFF) lsr 27) (Char.chr i)
  done;
  Bytes.to_string b

(* index of the lowest set bit of a 32-bit word [w <> 0], in constant
   time: [w land (-w)] is that bit 2^i, and 2^i * [debruijn] is
   [debruijn lsl i] *)
let[@inline] ctz w =
  Char.code ctz_table.[(((w land (-w)) * debruijn) land 0xFFFFFFFF) lsr 27]

(* whole words after the start word, wrapping; then the start word's low
   bits (positions before [start]) close the circle.  Top-level (not a
   local closure) so the per-[load] call allocates nothing. *)
let rec scan_words occ ~base ~wi ~bit ~words ~start ~mask j =
  if j > words then max_int
  else begin
    let wj = (wi + j) land (words - 1) in
    let w =
      if j = words then occ.(base + wi) land ((1 lsl bit) - 1)
      else occ.(base + wj)
    in
    if w <> 0 then ((wj lsl 5) + ctz w - start) land mask
    else scan_words occ ~base ~wi ~bit ~words ~start ~mask (j + 1)
  end

(* Circular distance (in ring slots, 0..mask) from ring position [start]
   to the nearest occupied slot of [level]; [max_int] if the level is
   empty.  Reads occupancy words, not slot lengths. *)
let first_occupied_distance t ~level ~start =
  let words = occ_words in
  let base = level * words in
  let wi = start lsr 5 and bit = start land 31 in
  let w0 = t.occ.(base + wi) lsr bit in
  if w0 <> 0 then ctz w0
  else
    let mask = (1 lsl bits) - 1 in
    scan_words t.occ ~base ~wi ~bit ~words ~start ~mask 1

(* Earliest window start (granule-aligned) holding any entry, scanning
   each ring's live window from level [k] up, from the frontier's slot
   forward; [best] when no level from [k] on beats it.  A handful of
   occupancy-word reads per level. *)
let rec next_occupied_window t k best =
  if k = levels then best
  else begin
    let sh = shift k in
    let fslot = t.frontier lsr sh in
    let d =
      first_occupied_distance t ~level:k ~start:(fslot land ((1 lsl bits) - 1))
    in
    let w = if d = max_int then max_int else (fslot + d) lsl sh in
    next_occupied_window t (k + 1) (if w < best then w else best)
  end

(* ---- the run ---- *)

let[@inline] run_empty t = t.tail = 0
let[@inline] head_time_ns t = t.run.(t.head)
let[@inline] head_born t = t.run.(t.head + 1)
let[@inline] head_src t = t.run.(t.head + 2)
let[@inline] head_seq t = t.run.(t.head + 3)

let pop t =
  let h = t.head in
  let v = t.run.(h + 4) in
  if h + stride = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end
  else t.head <- h + stride;
  v

(* The offset at which an entry keyed (time, born, src, seq) belongs
   among the run's ints [head, o), each later entry moved up one. *)
let rec seat r ~fifo ~head o time born src seq =
  if
    o > head
    && Event_queue.lt ~fifo time born src seq r.(o - stride) r.(o - 4) r.(o - 3)
         r.(o - 2)
  then begin
    for i = o - stride to o - 1 do
      r.(i + stride) <- r.(i)
    done;
    seat r ~fifo ~head (o - stride) time born src seq
  end
  else o

(* Insert into the run.  [load] fills it only while it is empty, window
   by window, in window order, so each entry walks back past its own
   window's later entries at most; an entry added behind the frontier
   walks back past the unpopped entries later than it.  A full run
   slides its unpopped entries to the front, into an array twice as
   long unless at most half of it is unpopped: seats into a run that
   never empties would otherwise grow it without bound. *)
let run_push t ~time_ns ~born_ns ~src ~seq v =
  if t.tail = Array.length t.run then begin
    let live = t.tail - t.head in
    let run =
      if 2 * live <= t.tail then t.run
      else
        (* amortized doubling: O(log n) times per wheel, never in steady state — lint: allow alloc-array *)
        Array.make (2 * t.tail) 0
    in
    Array.blit t.run t.head run 0 live;
    t.run <- run;
    t.head <- 0;
    t.tail <- live
  end;
  let n = t.tail in
  let r = t.run in
  let o = seat r ~fifo:t.fifo ~head:t.head n time_ns born_ns src seq in
  r.(o) <- time_ns;
  r.(o + 1) <- born_ns;
  r.(o + 2) <- src;
  r.(o + 3) <- seq;
  r.(o + 4) <- v;
  t.tail <- n + stride

let add t ~time_ns ~born_ns ~src ~seq v =
  if time_ns < t.frontier then begin
    run_push t ~time_ns ~born_ns ~src ~seq v;
    false
  end
  else begin
    t.count <- t.count + 1;
    place t ~time_ns ~born_ns ~src ~seq v 0
  end

(* ---- loading ---- *)

(* Empty one slot's entries [i, len): level 0 into the run with their
   original (time, born, src, seq) keys, while higher levels cascade
   each entry down ([place] from level 0 puts it within reach of the
   ring below, because the frontier sits at the slot's window start,
   unless it is parked past the horizon again). *)
let rec flush_entries t ~level d len i =
  if i < len then begin
    let o = i * stride in
    let time_ns = d.(o)
    and born_ns = d.(o + 1)
    and src = d.(o + 2)
    and seq = d.(o + 3)
    and v = d.(o + 4) in
    if level = 0 then begin
      t.count <- t.count - 1;
      run_push t ~time_ns ~born_ns ~src ~seq v
    end
    else begin
      let (_ : bool) = place t ~time_ns ~born_ns ~src ~seq v 0 in
      ()
    end;
    flush_entries t ~level d len (i + 1)
  end

(* The slot is emptied before its entries are re-placed.  A cascade
   re-places into lower levels, or parks in the top level's farthest
   slot, never back into this slot, the frontier's; even if it did,
   each re-push writes at or below the entry just read, so no unread
   entry is overwritten. *)
let flush_slot t ~level idx =
  let s = t.slots.(idx) in
  let n = s.len in
  if n > 0 then begin
    s.len <- 0;
    occ_clear t idx;
    flush_entries t ~level s.data n 0
  end

(* Cascade every level from [k] down to 1 whose slot the frontier is
   entering (all lower index bits zero). *)
let rec cascade t k =
  if k > 0 then begin
    let sh = shift k in
    if t.frontier land ((1 lsl sh) - 1) = 0 then
      flush_slot t ~level:k ((k lsl bits) lor ((t.frontier lsr sh) land ((1 lsl bits) - 1)));
    cascade t (k - 1)
  end

(* Cascade the upper levels, then load the level-0 slot and step one
   granule: an entry added at this window's ring index from now on is a
   whole ring later, and waits for the next lap. *)
let step_frontier t =
  cascade t (levels - 1);
  flush_slot t ~level:0 ((t.frontier lsr g_bits) land ((1 lsl bits) - 1));
  t.frontier <- t.frontier + (1 lsl g_bits)

(* Jump the frontier to the earliest occupied window, never behind it,
   and load that window until the run holds an entry: cascaded entries
   land in strictly later windows. *)
let rec load t =
  if t.tail = 0 && t.count > 0 then begin
    t.frontier <- next_occupied_window t 0 max_int;
    step_frontier t;
    load t
  end
