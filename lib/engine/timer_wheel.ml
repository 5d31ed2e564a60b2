(* Hierarchical timing wheel staging short-horizon events for the
   scheduler's binary heap.

   The wheel is a set of [levels] rings of [2^bits] slots each; a level-k
   slot spans [2^(g_bits + k*bits)] ns, so with the defaults (3 levels of
   256 slots at 64 ns granularity) the wheel covers ~1.07 s of simulated
   future — every link hop, TCP RTO/TLP and flowlet gap the simulator
   arms.  Events beyond the horizon (or behind the flushed frontier) are
   refused by [add]; the caller keeps them in the overflow heap.

   Slots hold unsorted (time, born, src, seq, payload) tuples in
   growable structure-of-arrays chunks.  Ordering is delegated entirely
   to the destination heap: [advance] flushes whole slots — complete
   windows, in window order, before the caller's clock can reach them —
   so the heap's (time, born, src, seq) comparator reproduces exactly
   the pop order of a pure binary heap.  The wheel never reorders, delays, or drops an event
   (except entries failing [keep], which are cancelled timers).

   Two costs matter on the scheduler's per-pop path:
   - [min_bound_ns] is O(1): a cached lower bound on the earliest queued
     entry time, tightened by [add] and raised past flushed windows by
     [advance], so the common "heap top pops next" case is one compare.
   - [advance] skips runs of empty slots via a per-level occupancy
     bitmap (32 slots per word, find-first-set) instead of stepping the
     frontier one granule at a time across idle gaps or reading up to
     [levels * 2^bits] slot lengths per hop. *)

type slot = {
  mutable s_times : int array;
  mutable s_borns : int array;
  mutable s_srcs : int array;
  mutable s_seqs : int array;
  mutable s_len : int;
}

type 'a t = {
  dummy : 'a;
  keep : 'a -> bool;
  bits : int; (* log2 slots per level *)
  g_bits : int; (* log2 of level-0 slot span, ns *)
  levels : int;
  slots : slot array; (* levels * 2^bits, level-major *)
  vals : 'a array array; (* payload columns, parallel to [slots] *)
  (* per-level slot-occupancy bitmap, 32 bits per word: bit [i land 31]
     of [occ.(level * occ_words + (i lsr 5))] is set iff ring slot [i]
     of that level is non-empty.  [next_occupied_window] runs once per
     flushed window on the scheduler's hot path; scanning a handful of
     words beats reading up to [2^bits] slot lengths per level *)
  occ : int array;
  occ_words : int; (* words per level; power of two *)
  mutable frontier : int; (* absolute ns, multiple of 2^g_bits *)
  mutable count : int;
  mutable lb : int; (* lower bound on min queued entry time, ns *)
}

let empty_ints = [||]

let create ?(bits = 8) ?(g_bits = 6) ?(levels = 3) ~dummy ~keep () =
  if bits < 1 || g_bits < 0 || levels < 1 then invalid_arg "Timer_wheel.create";
  let nslots = levels lsl bits in
  let occ_words = max 1 ((1 lsl bits) lsr 5) in
  {
    dummy;
    keep;
    bits;
    g_bits;
    levels;
    slots =
      Array.init nslots (fun _ ->
          {
            s_times = empty_ints;
            s_borns = empty_ints;
            s_srcs = empty_ints;
            s_seqs = empty_ints;
            s_len = 0;
          });
    vals = Array.make nslots [||];
    occ = Array.make (levels * occ_words) 0;
    occ_words;
    frontier = 0;
    count = 0;
    lb = max_int;
  }

(* [idx] is the level-major slot index (level lsl bits) lor ring *)
let[@inline] occ_set t idx =
  let level = idx lsr t.bits and ring = idx land ((1 lsl t.bits) - 1) in
  let wi = (level * t.occ_words) + (ring lsr 5) in
  t.occ.(wi) <- t.occ.(wi) lor (1 lsl (ring land 31))

let[@inline] occ_clear t idx =
  let level = idx lsr t.bits and ring = idx land ((1 lsl t.bits) - 1) in
  let wi = (level * t.occ_words) + (ring lsr 5) in
  t.occ.(wi) <- t.occ.(wi) land lnot (1 lsl (ring land 31))

let size t = t.count
let is_empty t = t.count = 0
let min_bound_ns t = if t.count = 0 then max_int else t.lb

(* ns span of one level-k slot, as a shift *)
let[@inline] shift t k = t.g_bits + (k * t.bits)

let slot_push t idx ~time_ns ~born_ns ~src ~seq v =
  let s = t.slots.(idx) in
  let cap = Array.length s.s_times in
  if s.s_len = cap then begin
    let cap' = if cap = 0 then 4 else 2 * cap in
    let times = Array.make cap' 0
    and borns = Array.make cap' 0
    and srcs = Array.make cap' 0
    and seqs = Array.make cap' 0
    and vals = Array.make cap' t.dummy in
    Array.blit s.s_times 0 times 0 s.s_len;
    Array.blit s.s_borns 0 borns 0 s.s_len;
    Array.blit s.s_srcs 0 srcs 0 s.s_len;
    Array.blit s.s_seqs 0 seqs 0 s.s_len;
    Array.blit t.vals.(idx) 0 vals 0 s.s_len;
    s.s_times <- times;
    s.s_borns <- borns;
    s.s_srcs <- srcs;
    s.s_seqs <- seqs;
    t.vals.(idx) <- vals
  end;
  s.s_times.(s.s_len) <- time_ns;
  s.s_borns.(s.s_len) <- born_ns;
  s.s_srcs.(s.s_len) <- src;
  s.s_seqs.(s.s_len) <- seq;
  t.vals.(idx).(s.s_len) <- v;
  if s.s_len = 0 then occ_set t idx;
  s.s_len <- s.s_len + 1

(* Place at the smallest level whose live window reaches [time_ns]: level
   k accepts times at most [2^bits] level-k slots ahead of the frontier's
   slot.  A time sharing the frontier's level-k slot (k > 0) always fits
   a lower level, since one level-k slot spans a whole level-(k-1) ring —
   so the slot the frontier sits in is empty at every level above 0,
   which is what lets [advance] jump the frontier across idle gaps. *)
let rec place t ~time_ns ~born_ns ~src ~seq v k =
  if k = t.levels then false
  else begin
    let sh = shift t k in
    let mask = (1 lsl t.bits) - 1 in
    if (time_ns lsr sh) - (t.frontier lsr sh) <= mask then begin
      let idx = (k lsl t.bits) lor ((time_ns lsr sh) land mask) in
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

(* index of the lowest set bit; caller guarantees [w <> 0] *)
let rec ctz_from w i = if w land (1 lsl i) <> 0 then i else ctz_from w (i + 1)

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
    if w <> 0 then ((wj lsl 5) + ctz_from w 0 - start) land mask
    else scan_words occ ~base ~wi ~bit ~words ~start ~mask (j + 1)
  end

(* Circular distance (in ring slots, 0..mask) from ring position [start]
   to the nearest occupied slot of [level]; [max_int] if the level is
   empty.  Reads occupancy words, not slot lengths. *)
let first_occupied_distance t ~level ~start =
  let words = t.occ_words in
  let base = level * words in
  let wi = start lsr 5 and bit = start land 31 in
  let w0 = t.occ.(base + wi) lsr bit in
  if w0 <> 0 then ctz_from w0 0
  else
    let mask = (1 lsl t.bits) - 1 in
    scan_words t.occ ~base ~wi ~bit ~words ~start ~mask 1

(* Earliest window start (granule-aligned) holding any entry, scanning
   each ring's live window from the frontier's slot forward; [max_int]
   when the wheel is empty.  A handful of occupancy-word reads per level. *)
let next_occupied_window t =
  let mask = (1 lsl t.bits) - 1 in
  let best = ref max_int in
  for k = 0 to t.levels - 1 do
    let sh = shift t k in
    let fslot = t.frontier lsr sh in
    let d = first_occupied_distance t ~level:k ~start:(fslot land mask) in
    if d <> max_int then begin
      let w = (fslot + d) lsl sh in
      if w < !best then best := w
    end
  done;
  !best

(* Flush one slot: level 0 empties into the heap with original (time,
   born, src, seq) keys — dead entries are purged and counted — while higher
   levels cascade each entry down ([place] from level 0 always succeeds
   here because the frontier sits at the slot's window start, putting
   the whole window within reach of the ring below). *)
let flush_slot t ~level idx ~into ~dropped =
  let s = t.slots.(idx) in
  let n = s.s_len in
  if n > 0 then begin
    let vals = t.vals.(idx) in
    s.s_len <- 0;
    occ_clear t idx;
    for i = 0 to n - 1 do
      let v = vals.(i) in
      let time_ns = s.s_times.(i)
      and born_ns = s.s_borns.(i)
      and src = s.s_srcs.(i)
      and seq = s.s_seqs.(i) in
      vals.(i) <- t.dummy;
      if not (t.keep v) then begin
        t.count <- t.count - 1;
        incr dropped
      end
      else if level = 0 then begin
        t.count <- t.count - 1;
        Event_queue.add_at_ns into ~time_ns ~born_ns ~src ~seq v
      end
      else if not (place t ~time_ns ~born_ns ~src ~seq v 0) then begin
        (* unreachable by the window argument above; stay safe anyway *)
        t.count <- t.count - 1;
        Event_queue.add_at_ns into ~time_ns ~born_ns ~src ~seq v
      end
    done
  end

(* Cascade every level whose slot the frontier is entering (all lower
   index bits zero), then flush the level-0 slot and step one granule. *)
let step_frontier t ~into ~dropped =
  let mask = (1 lsl t.bits) - 1 in
  for k = t.levels - 1 downto 1 do
    let sh = shift t k in
    if t.frontier land ((1 lsl sh) - 1) = 0 then
      flush_slot t ~level:k
        ((k lsl t.bits) lor ((t.frontier lsr sh) land mask))
        ~into ~dropped
  done;
  flush_slot t ~level:0
    ((t.frontier lsr t.g_bits) land mask)
    ~into ~dropped;
  t.frontier <- t.frontier + (1 lsl t.g_bits)

(* Flush every window whose start is <= [upto_ns] into [into], jumping
   the frontier across empty stretches.  Afterwards every remaining
   wheel entry's time exceeds [upto_ns], so a heap top at or before
   [upto_ns] is the true global minimum.  Returns the number of dead
   entries purged. *)
let advance t ~upto_ns ~into =
  let dropped = ref 0 in
  (* first granule boundary strictly past [upto_ns] *)
  let target = ((upto_ns lsr t.g_bits) + 1) lsl t.g_bits in
  let continue = ref true in
  while !continue do
    if t.count = 0 then begin
      if t.frontier < target then t.frontier <- target;
      t.lb <- max_int;
      continue := false
    end
    else begin
      let next = next_occupied_window t in
      if next > upto_ns then begin
        (* [next] is granule-aligned and > upto_ns, hence >= target: the
           jump cannot skip an occupied window's boundary *)
        if t.frontier < target then t.frontier <- target;
        if t.lb < next then t.lb <- next;
        continue := false
      end
      else begin
        if next > t.frontier then t.frontier <- next;
        step_frontier t ~into ~dropped
      end
    end
  done;
  !dropped

(* Flush just the earliest occupied window (used when the heap is empty:
   afterwards the heap top precedes every remaining wheel entry, because
   cascaded survivors land in strictly later windows). *)
let advance_next t ~into =
  let dropped = ref 0 in
  let before = Event_queue.size into in
  while t.count > 0 && Event_queue.size into = before do
    let next = next_occupied_window t in
    if next > t.frontier then t.frontier <- next;
    step_frontier t ~into ~dropped
  done;
  if t.count = 0 then t.lb <- max_int
  else if t.lb < t.frontier then t.lb <- t.frontier;
  !dropped

let compact t =
  let dropped = ref 0 in
  for idx = 0 to Array.length t.slots - 1 do
    let s = t.slots.(idx) in
    if s.s_len > 0 then begin
      let vals = t.vals.(idx) in
      let kept = ref 0 in
      for i = 0 to s.s_len - 1 do
        if t.keep vals.(i) then begin
          if !kept <> i then begin
            s.s_times.(!kept) <- s.s_times.(i);
            s.s_borns.(!kept) <- s.s_borns.(i);
            s.s_srcs.(!kept) <- s.s_srcs.(i);
            s.s_seqs.(!kept) <- s.s_seqs.(i);
            vals.(!kept) <- vals.(i)
          end;
          incr kept
        end
      done;
      let removed = s.s_len - !kept in
      Array.fill vals !kept removed t.dummy;
      s.s_len <- !kept;
      if !kept = 0 then occ_clear t idx;
      t.count <- t.count - removed;
      dropped := !dropped + removed
    end
  done;
  if t.count = 0 then t.lb <- max_int;
  !dropped
