type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
  mutable sum : float;
}

let create () =
  {
    data = Array.make 64 0.0;
    size = 0;
    sorted = true;
    sum = 0.0;
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
  t.sum <- t.sum +. x

let mean t = if t.size = 0 then nan else t.sum /. float_of_int t.size

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
