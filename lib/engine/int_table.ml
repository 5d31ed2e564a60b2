(* Open-addressing int-keyed hash table with linear probing.

   Replaces stdlib [Hashtbl] on the per-packet hot paths: no bucket-list
   cells are allocated on insert, [find_default] allocates nothing on
   lookup (no [Some] box), and deletion uses backward-shift compaction
   instead of tombstones so probe chains never grow stale.  Capacity is
   always a power of two; the caller supplies a [dummy] payload that pads
   empty value slots (mirroring [Event_queue]'s GC-safe convention).

   Iteration visits slots in array order.  That order is a deterministic
   function of the insertion/removal history (the hash is a fixed integer
   mix, never salted per-run), but it is NOT sorted: callers whose
   traversal has observable effects must use [sorted_keys]/[iter_sorted]
   (clove-check's [sema-hashtbl-order] rule flags a [fold] whose closure
   has effects). *)

type 'a t = {
  mutable keys : int array; (* [empty_key] marks a free slot *)
  mutable vals : 'a array;
  dummy : 'a;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
}

(* Keys are flow hashes, ports and [Addr.to_int] values — all >= 0 in
   practice, but only this sentinel is actually reserved. *)
let empty_key = min_int

let rec pow2_above n c = if c >= n then c else pow2_above n (c * 2)

let create ~capacity ~dummy =
  let cap = pow2_above (Int.max capacity 2) 2 in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap dummy;
    dummy;
    mask = cap - 1;
    count = 0;
  }

(* Fibonacci multiplicative mix: spreads consecutive keys (ports, host
   addresses) across the table.  Constant, never salted — iteration order
   must be a pure function of the operation history for determinism. *)
let[@inline] slot_of t key = (key * 0x5851F42D4C957F2D) lsr 5 land t.mask

let length t = t.count

(* the slot holding [key], or the free slot ending its probe chain *)
let rec probe t key i =
  let k = t.keys.(i) in
  if k = key || k = empty_key then i else probe t key ((i + 1) land t.mask)

(* the slot holding [key], or -1 *)
let[@inline] index t key =
  let i = probe t key (slot_of t key) in
  if t.keys.(i) = key then i else -1

let mem t key = index t key >= 0

let find_default t key default =
  let i = index t key in
  if i >= 0 then t.vals.(i) else default

let find_opt t key =
  let i = index t key in
  if i >= 0 then Some t.vals.(i) else None

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  (* amortized doubling: O(log n) times per table, never in steady state — lint: allow alloc-array *)
  t.keys <- Array.make cap empty_key;
  (* the payload column of the same doubling — lint: allow alloc-array *)
  t.vals <- Array.make cap t.dummy;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k <> empty_key then begin
      let j = probe t k (slot_of t k) in
      t.keys.(j) <- k;
      t.vals.(j) <- old_vals.(i)
    end
  done

let set t key value =
  if key = empty_key then invalid_arg "Int_table.set: reserved key";
  (* grow at 5/8 load so probe chains stay short *)
  if 8 * (t.count + 1) > 5 * (t.mask + 1) then grow t;
  let i = probe t key (slot_of t key) in
  if t.keys.(i) = empty_key then begin
    t.keys.(i) <- key;
    t.count <- t.count + 1
  end;
  t.vals.(i) <- value

(* Backward-shift deletion: close the hole by moving back any later entry
   of the probe chain whose home slot precedes the hole, so lookups never
   need tombstones and long-lived tables do not accumulate them.
   [shift_back t hole j] shifts the chain from [j] and returns the hole
   it leaves. *)
let rec shift_back t hole j =
  let k = t.keys.(j) in
  if k = empty_key then hole
  else begin
    let next = (j + 1) land t.mask in
    (* is [k]'s home slot outside the (hole, j] circular interval?  then
       the entry at [j] may legally move back into the hole *)
    if (j - slot_of t k) land t.mask >= (j - hole) land t.mask then begin
      t.keys.(hole) <- k;
      t.vals.(hole) <- t.vals.(j);
      shift_back t j next
    end
    else shift_back t hole next
  end

let remove t key =
  let i = index t key in
  if i >= 0 then begin
    t.count <- t.count - 1;
    let hole = shift_back t i ((i + 1) land t.mask) in
    t.keys.(hole) <- empty_key;
    t.vals.(hole) <- t.dummy
  end

(* the slot-order traversal as a loop over the slots from [i]: no
   closure or ref cell, so it allocates only what [f] does *)
let rec fold_from f t i acc =
  if i = Array.length t.keys then acc
  else
    let k = t.keys.(i) in
    fold_from f t (i + 1) (if k <> empty_key then f k t.vals.(i) acc else acc)

let fold f t init = fold_from f t 0 init

let sorted_keys t =
  fold (fun k _ acc -> k :: acc) t [] |> List.sort Int.compare

let iter_sorted f t =
  List.iter (fun k -> f k (find_default t k t.dummy)) (sorted_keys t)

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty_key;
  Array.fill t.vals 0 (Array.length t.vals) t.dummy;
  t.count <- 0
