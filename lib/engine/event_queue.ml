(* Unboxed structure-of-arrays binary min-heap.

   The previous representation boxed every scheduled event as
   [Some { time; seq; value }] — two heap blocks per event on the
   simulator's hottest path.  Storing times and sequence numbers in
   [int array]s and payloads in a plain ['a array] padded with a
   caller-supplied [dummy] keeps the hot path allocation-free: [add]
   and [pop] allocate nothing (the only allocation left is [pop]'s
   [Some (time, value)] result).  The [dummy] fills slots above [size]
   so vacated payloads are released to the GC without an [option] box.

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
   instant — program order, identical at any shard count. *)

type 'a t = {
  mutable times : int array; (* event time in ns *)
  mutable borns : int array; (* insertion instant in ns, first tie-break *)
  mutable srcs : int array; (* owning component id, second tie-break *)
  mutable seqs : int array; (* insertion sequence, final tie-break *)
  mutable values : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 256) ~dummy () =
  let capacity = max capacity 1 in
  {
    times = Array.make capacity 0;
    borns = Array.make capacity 0;
    srcs = Array.make capacity 0;
    seqs = Array.make capacity 0;
    values = Array.make capacity dummy;
    dummy;
    size = 0;
    next_seq = 0;
  }

(* Same-(time, born, src) events fire in schedule order (FIFO on [seq]).
   The perturbation sanitizer reverses that residual tie-break between
   complete runs to check nothing depends on it; the knob must never
   change while a queue is non-empty (the heap invariant assumes a fixed
   comparator).  Each operation reads the knob once into [fifo] so a
   single sift sees a consistent comparator. *)
let[@inline] lt ~fifo t1 b1 c1 s1 t2 b2 c2 s2 =
  if t1 <> t2 then t1 < t2
  else if b1 <> b2 then b1 < b2
  else if c1 <> c2 then c1 < c2
  else if fifo then s1 < s2
  else s1 > s2

let fifo_now () =
  match !Analysis.Perturb.tiebreak with
  | Analysis.Perturb.Fifo -> true
  | Analysis.Perturb.Lifo -> false

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0
  and borns = Array.make cap 0
  and srcs = Array.make cap 0
  and seqs = Array.make cap 0
  and values = Array.make cap t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.borns 0 borns 0 t.size;
  Array.blit t.srcs 0 srcs 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.borns <- borns;
  t.srcs <- srcs;
  t.seqs <- seqs;
  t.values <- values

(* [add_at_ns] is the scheduler-facing entry point: the scheduler owns
   the sequence counter (it is shared with the timer wheel so wheel
   overflow and direct heap adds draw from one stream), so the seq is a
   caller argument here.  [add] below keeps the self-sequencing API for
   standalone users (benchmarks, tests). *)
let add_at_ns t ~time_ns:time ~born_ns:born ~src ~seq value =
  if t.size = Array.length t.times then grow t;
  let fifo = fifo_now () in
  let times = t.times
  and borns = t.borns
  and srcs = t.srcs
  and seqs = t.seqs
  and values = t.values in
  (* hole-based sift-up: move lighter parents down, drop the new entry in *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    if
      lt ~fifo time born src seq times.(parent) borns.(parent) srcs.(parent)
        seqs.(parent)
    then begin
      times.(!i) <- times.(parent);
      borns.(!i) <- borns.(parent);
      srcs.(!i) <- srcs.(parent);
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else sifting := false
  done;
  times.(!i) <- time;
  borns.(!i) <- born;
  srcs.(!i) <- src;
  seqs.(!i) <- seq;
  values.(!i) <- value

let add t ~time value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* standalone users get the historical pure (time, seq) order *)
  add_at_ns t ~time_ns:(Sim_time.to_ns time) ~born_ns:0 ~src:0 ~seq value

(* Floyd heapify: restore the heap property over the first [size]
   entries after an in-place rewrite.  Pop order is unaffected by the
   internal layout — (time, born, src, seq) is a total order, so the minimum
   popped at every step is the same whatever valid heap shape the arrays
   hold — which is what makes in-place compaction determinism-safe. *)
let heapify t =
  let n = t.size in
  let times = t.times
  and borns = t.borns
  and srcs = t.srcs
  and seqs = t.seqs
  and values = t.values in
  let fifo = fifo_now () in
  for start = (n / 2) - 1 downto 0 do
    let mtime = times.(start)
    and mborn = borns.(start)
    and msrc = srcs.(start)
    and mseq = seqs.(start)
    and mvalue = values.(start) in
    let i = ref start in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && lt ~fifo times.(r) borns.(r) srcs.(r) seqs.(r) times.(l)
                 borns.(l) srcs.(l) seqs.(l)
          then r
          else l
        in
        if lt ~fifo times.(c) borns.(c) srcs.(c) seqs.(c) mtime mborn msrc mseq
        then begin
          times.(!i) <- times.(c);
          borns.(!i) <- borns.(c);
          srcs.(!i) <- srcs.(c);
          seqs.(!i) <- seqs.(c);
          values.(!i) <- values.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- mtime;
    borns.(!i) <- mborn;
    srcs.(!i) <- msrc;
    seqs.(!i) <- mseq;
    values.(!i) <- mvalue
  done

let compact t ~keep =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    if keep t.values.(i) then begin
      if !kept <> i then begin
        t.times.(!kept) <- t.times.(i);
        t.borns.(!kept) <- t.borns.(i);
        t.srcs.(!kept) <- t.srcs.(i);
        t.seqs.(!kept) <- t.seqs.(i);
        t.values.(!kept) <- t.values.(i)
      end;
      incr kept
    end
  done;
  let dropped = t.size - !kept in
  Array.fill t.values !kept dropped t.dummy;
  t.size <- !kept;
  heapify t;
  dropped

(* Allocation-free pop for the scheduler's hot loop: the caller must
   check emptiness (and read [min_time_ns]) first. *)
let pop_unsafe t =
  let top_value = t.values.(0) in
  let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      let times = t.times
      and borns = t.borns
      and srcs = t.srcs
      and seqs = t.seqs
      and values = t.values in
      (* re-insert the last entry at the root and sift its hole down *)
      let mtime = times.(n)
      and mborn = borns.(n)
      and msrc = srcs.(n)
      and mseq = seqs.(n)
      and mvalue = values.(n) in
      let fifo = fifo_now () in
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && lt ~fifo times.(r) borns.(r) srcs.(r) seqs.(r) times.(l)
                   borns.(l) srcs.(l) seqs.(l)
            then r
            else l
          in
          if
            lt ~fifo times.(c) borns.(c) srcs.(c) seqs.(c) mtime mborn msrc
              mseq
          then begin
            times.(!i) <- times.(c);
            borns.(!i) <- borns.(c);
            srcs.(!i) <- srcs.(c);
            seqs.(!i) <- seqs.(c);
            values.(!i) <- values.(c);
            i := c
          end
          else sifting := false
        end
      done;
      times.(!i) <- mtime;
      borns.(!i) <- mborn;
      srcs.(!i) <- msrc;
      seqs.(!i) <- mseq;
      values.(!i) <- mvalue
    end;
    (* release the vacated payload slot for GC *)
    t.values.(t.size) <- t.dummy;
    top_value

let pop t =
  if t.size = 0 then None
  else begin
    let top_time = t.times.(0) in
    let top_value = pop_unsafe t in
    Some (Sim_time.of_ns top_time, top_value)
  end

let min_time_ns t = if t.size = 0 then max_int else t.times.(0)
let peek_time t = if t.size = 0 then None else Some (Sim_time.of_ns t.times.(0))
let size t = t.size
let is_empty t = t.size = 0

let clear t =
  Array.fill t.values 0 t.size t.dummy;
  t.size <- 0
