type record = { size : int; start_sec : float; fct_sec : float }

(* Records live in a growable array in recording order and iterate
   back-to-front: that is byte-for-byte the iteration order of the
   historical cons-list representation (newest first), so every
   order-sensitive float fold (summary means, timeline buckets) keeps
   its exact output while [record] stays O(1) amortized and [merge] /
   [filter_size] / [window] drop the old O(n) list append and repeated
   [List.length] passes. *)
type t = { mutable arr : record array; mutable len : int }

let dummy_record = { size = 0; start_sec = 0.0; fct_sec = 0.0 }

let create () = { arr = [||]; len = 0 }

let push t r =
  let cap = Array.length t.arr in
  if t.len = cap then begin
    let arr = Array.make (if cap = 0 then 16 else 2 * cap) dummy_record in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  t.arr.(t.len) <- r;
  t.len <- t.len + 1

(* newest-first, the historical list order *)
let iter_rev t f =
  for i = t.len - 1 downto 0 do
    f t.arr.(i)
  done

let mice_cutoff = 100_000
let elephant_cutoff = 10_000_000

let record t ~size ~start ~finish =
  let fct_sec = Sim_time.span_to_sec (Sim_time.diff finish start) in
  push t { size; start_sec = Sim_time.to_sec start; fct_sec }

let count t = t.len

let last_finish t =
  let acc = ref Sim_time.zero in
  iter_rev t (fun r ->
      acc := Sim_time.max !acc (Sim_time.of_span (Sim_time.span_of_sec (r.start_sec +. r.fct_sec))));
  !acc

let summary ?(min_size = 0) ?(max_size = max_int) t =
  let s = Stats.Summary.create () in
  iter_rev t (fun r ->
      if r.size >= min_size && r.size < max_size then Stats.Summary.add s r.fct_sec);
  s

let avg ?min_size ?max_size t = Stats.Summary.mean (summary ?min_size ?max_size t)

let percentile ?min_size ?max_size t p =
  Stats.Summary.percentile (summary ?min_size ?max_size t) p

let merge a b =
  (* the list representation produced a-then-b in newest-first order;
     back-to-front iteration over [b's records; a's records] matches *)
  let arr = Array.make (max 1 (a.len + b.len)) dummy_record in
  Array.blit b.arr 0 arr 0 b.len;
  Array.blit a.arr 0 arr b.len a.len;
  { arr; len = a.len + b.len }

let filtered t keep =
  let out = create () in
  for i = 0 to t.len - 1 do
    let r = t.arr.(i) in
    if keep r then push out r
  done;
  out

let filter_size ?(min_size = 0) ?(max_size = max_int) t =
  filtered t (fun r -> r.size >= min_size && r.size < max_size)

let window ~from ~until t =
  filtered t (fun r -> r.start_sec >= from && r.start_sec < until)

let total_bytes t =
  let acc = ref 0 in
  iter_rev t (fun r -> acc := !acc + r.size);
  !acc

let completed_bytes_in ~from ~until t =
  let acc = ref 0 in
  iter_rev t (fun r ->
      let fin = r.start_sec +. r.fct_sec in
      if fin >= from && fin < until then acc := !acc + r.size);
  !acc

let timeline t ~bucket_sec =
  if bucket_sec <= 0.0 then invalid_arg "Fct_stats.timeline: bucket must be positive";
  let buckets = Hashtbl.create 16 in
  iter_rev t (fun r ->
      let b = int_of_float (r.start_sec /. bucket_sec) in
      let s =
        match Hashtbl.find_opt buckets b with
        | Some s -> s
        | None ->
          let s = Stats.Summary.create () in
          Hashtbl.replace buckets b s;
          s
      in
      Stats.Summary.add s r.fct_sec);
  Hashtbl.fold (fun b s acc -> (float_of_int b *. bucket_sec, s) :: acc) buckets []
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

(* sort on all three fields: invariant to completion (hence recording)
   order, which is exactly what differs across PDES shard counts *)
let compare_records a b =
  let c = Float.compare a.start_sec b.start_sec in
  if c <> 0 then c
  else
    let c = Int.compare a.size b.size in
    if c <> 0 then c else Float.compare a.fct_sec b.fct_sec

let canonicalize t =
  (* back-to-front iteration must yield ascending canonical order, so the
     array itself is sorted descending, in place after a one-off shrink
     to the live prefix *)
  if Array.length t.arr <> t.len then t.arr <- Array.sub t.arr 0 t.len;
  Array.sort (fun a b -> compare_records b a) t.arr

let canonical_dump t =
  (* hex floats round-trip every bit *)
  let recs = Array.sub t.arr 0 t.len in
  Array.sort compare_records recs;
  let buf = Buffer.create (64 * (t.len + 1)) in
  Array.iter (fun r -> Printf.bprintf buf "%d %h %h\n" r.size r.start_sec r.fct_sec) recs;
  Buffer.contents buf
