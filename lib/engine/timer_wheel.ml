(* Hierarchical timing wheel staging short-horizon events for the
   scheduler's binary heap.

   The wheel is a set of [levels] rings of [2^bits] slots each; a level-k
   slot spans [2^(g_bits + k*bits)] ns, so with 3 levels of 256 slots at
   64 ns granularity the wheel covers ~1.07 s of simulated future —
   every link hop and TCP RTO/TLP the simulator arms.  Events beyond the
   horizon (or behind the flushed frontier) are refused by [add]; the
   caller keeps them in the overflow heap.

   A slot holds unsorted (time, born, src, seq, payload) entries packed
   five ints apiece in one growable [int array]: the payload is the
   scheduler's immediate event code, so staging and flushing an entry
   writes no pointer.  Ordering is delegated entirely to the destination
   heap: [advance] flushes whole slots — complete windows, in window
   order, before the caller's clock can reach them — so the heap's
   (time, born, src, seq) comparator reproduces exactly the pop order of
   a pure binary heap.  The wheel never reorders, delays, or drops an
   event.

   Two costs matter on the scheduler's per-pop path:
   - [min_bound_ns] is O(1): a cached lower bound on the earliest queued
     entry time, tightened by [add] and raised past flushed windows by
     [advance], so the common "heap top pops next" case is one compare.
   - [advance] skips runs of empty slots via a per-level occupancy
     bitmap (32 slots per word, find-first-set) instead of stepping the
     frontier one granule at a time across idle gaps or reading up to
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
     flushed window on the scheduler's hot path; scanning a handful of
     words beats reading up to [2^bits] slot lengths per level *)
  occ : int array;
  mutable frontier : int; (* absolute ns, multiple of 2^g_bits *)
  mutable count : int;
  mutable lb : int; (* lower bound on min queued entry time, ns *)
}

let occ_words = (1 lsl bits) lsr 5 (* words per level; power of two *)

let create () =
  {
    slots = Array.init (levels lsl bits) (fun _ -> { data = [||]; len = 0 });
    occ = Array.make (levels * occ_words) 0;
    frontier = 0;
    count = 0;
    lb = max_int;
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

let size t = t.count
let is_empty t = t.count = 0
let min_bound_ns t = if t.count = 0 then max_int else t.lb

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
   which is what lets [advance] jump the frontier across idle gaps. *)
let rec place t ~time_ns ~born_ns ~src ~seq v k =
  if k = levels then false
  else begin
    let sh = shift k in
    let mask = (1 lsl bits) - 1 in
    if (time_ns lsr sh) - (t.frontier lsr sh) <= mask then begin
      let idx = (k lsl bits) lor ((time_ns lsr sh) land mask) in
      slot_push t idx ~time_ns ~born_ns ~src ~seq v;
      true
    end
    else place t ~time_ns ~born_ns ~src ~seq v (k + 1)
  end

let add t ~time_ns ~born_ns ~src ~seq v =
  if time_ns < t.frontier then false
  else if place t ~time_ns ~born_ns ~src ~seq v 0 then begin
    t.count <- t.count + 1;
    if time_ns < t.lb then t.lb <- time_ns;
    true
  end
  else false

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
   local closure) so the per-[advance] call allocates nothing. *)
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

(* Flush one slot's entries [i, len): level 0 empties into the heap with
   original (time, born, src, seq) keys, while higher levels cascade each
   entry down ([place] from level 0 always succeeds here because the
   frontier sits at the slot's window start, putting the whole window
   within reach of the ring below). *)
let rec flush_entries t ~level d len i ~into =
  if i < len then begin
    let o = i * stride in
    let time_ns = d.(o)
    and born_ns = d.(o + 1)
    and src = d.(o + 2)
    and seq = d.(o + 3)
    and v = d.(o + 4) in
    (* at level > 0 the [place] fallback is unreachable by the window
       argument above; stay safe anyway *)
    if level = 0 || not (place t ~time_ns ~born_ns ~src ~seq v 0) then begin
      t.count <- t.count - 1;
      Event_queue.add_at_ns into ~time_ns ~born_ns ~src ~seq v
    end;
    flush_entries t ~level d len (i + 1) ~into
  end

(* The slot is emptied before its entries are re-placed.  A cascade
   re-places into lower levels, never back into this slot; even if it
   did, each re-push writes at or below the entry just read, so no
   unread entry is overwritten. *)
let flush_slot t ~level idx ~into =
  let s = t.slots.(idx) in
  let n = s.len in
  if n > 0 then begin
    s.len <- 0;
    occ_clear t idx;
    flush_entries t ~level s.data n 0 ~into
  end

(* Cascade every level from [k] down to 1 whose slot the frontier is
   entering (all lower index bits zero). *)
let rec cascade t ~into k =
  if k > 0 then begin
    let sh = shift k in
    if t.frontier land ((1 lsl sh) - 1) = 0 then
      flush_slot t ~level:k
        ((k lsl bits) lor ((t.frontier lsr sh) land ((1 lsl bits) - 1)))
        ~into;
    cascade t ~into (k - 1)
  end

(* Cascade the upper levels, then flush the level-0 slot and step one
   granule. *)
let step_frontier t ~into =
  cascade t ~into (levels - 1);
  flush_slot t ~level:0 ((t.frontier lsr g_bits) land ((1 lsl bits) - 1)) ~into;
  t.frontier <- t.frontier + (1 lsl g_bits)

(* Flush every window whose start is <= [upto_ns] into [into], jumping
   the frontier across empty stretches.  Afterwards every remaining
   wheel entry's time exceeds [upto_ns], so a heap top at or before
   [upto_ns] is the true global minimum. *)
let rec advance_from t ~upto_ns ~target ~into =
  if t.count = 0 then begin
    if t.frontier < target then t.frontier <- target;
    t.lb <- max_int
  end
  else begin
    let next = next_occupied_window t 0 max_int in
    if next > upto_ns then begin
      (* [next] is granule-aligned and > upto_ns, hence >= target: the
         jump cannot skip an occupied window's boundary *)
      if t.frontier < target then t.frontier <- target;
      if t.lb < next then t.lb <- next
    end
    else begin
      if next > t.frontier then t.frontier <- next;
      step_frontier t ~into;
      advance_from t ~upto_ns ~target ~into
    end
  end

let advance t ~upto_ns ~into =
  (* first granule boundary strictly past [upto_ns] *)
  let target = ((upto_ns lsr g_bits) + 1) lsl g_bits in
  advance_from t ~upto_ns ~target ~into

(* Flush just the earliest occupied window (used when the heap is empty:
   afterwards the heap top precedes every remaining wheel entry, because
   cascaded survivors land in strictly later windows). *)
let rec advance_next_from t ~into ~before =
  if t.count > 0 && Event_queue.size into = before then begin
    let next = next_occupied_window t 0 max_int in
    if next > t.frontier then t.frontier <- next;
    step_frontier t ~into;
    advance_next_from t ~into ~before
  end
  else if t.count = 0 then t.lb <- max_int
  else if t.lb < t.frontier then t.lb <- t.frontier

let advance_next t ~into = advance_next_from t ~into ~before:(Event_queue.size into)
