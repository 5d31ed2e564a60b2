type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
  mutable sum : float;
  mutable sum_sq : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    data = Array.make 64 0.0;
    size = 0;
    sorted = true;
    sum = 0.0;
    sum_sq = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let add t x =
  if t.size = Array.length t.data then begin
    let data = Array.make (2 * t.size) 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.size
let mean t = if t.size = 0 then nan else t.sum /. float_of_int t.size
let total t = t.sum
let min_value t = if t.size = 0 then nan else t.min_v
let max_value t = if t.size = 0 then nan else t.max_v

let stddev t =
  if t.size = 0 then nan
  else
    let n = float_of_int t.size in
    let m = t.sum /. n in
    let v = (t.sum_sq /. n) -. (m *. m) in
    sqrt (max 0.0 v)

let ensure_sorted t =
  if not t.sorted then begin
    let sub = Array.sub t.data 0 t.size in
    Array.sort Float.compare sub;
    Array.blit sub 0 t.data 0 t.size;
    t.sorted <- true
  end

let percentile t p =
  if t.size = 0 then nan
  else if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p out of range"
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then t.data.(lo)
    else
      let w = rank -. float_of_int lo in
      ((1.0 -. w) *. t.data.(lo)) +. (w *. t.data.(hi))
  end

let median t = percentile t 50.0

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    add t a.data.(i)
  done;
  for i = 0 to b.size - 1 do
    add t b.data.(i)
  done;
  t
