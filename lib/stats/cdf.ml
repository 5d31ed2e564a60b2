type t = { xs : float array; ps : float array }

let of_knots knots =
  let arr = Array.of_list knots in
  let n = Array.length arr in
  if n < 2 then invalid_arg "Cdf.of_knots: need at least two knots";
  let xs = Array.map fst arr and ps = Array.map snd arr in
  for i = 0 to n - 2 do
    if xs.(i) > xs.(i + 1) || ps.(i) > ps.(i + 1) then
      invalid_arg "Cdf.of_knots: knots must be non-decreasing"
  done;
  if ps.(0) < 0.0 || abs_float (ps.(n - 1) -. 1.0) > 1e-9 then
    invalid_arg "Cdf.of_knots: probabilities must span up to 1";
  { xs; ps }

let inverse t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Cdf.inverse: p out of range";
  let n = Array.length t.xs in
  if p <= t.ps.(0) then t.xs.(0)
  else if p >= t.ps.(n - 1) then t.xs.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.ps.(mid) < p then lo := mid else hi := mid
    done;
    let x0 = t.xs.(!lo) and x1 = t.xs.(!hi) in
    let p0 = t.ps.(!lo) and p1 = t.ps.(!hi) in
    if p1 = p0 then x1 else x0 +. ((x1 -. x0) *. (p -. p0) /. (p1 -. p0))
  end

let mean t =
  (* integrate x dP over the piecewise-linear CDF: each segment contributes
     the midpoint value times its probability mass *)
  let acc = ref (t.xs.(0) *. t.ps.(0)) in
  for i = 0 to Array.length t.xs - 2 do
    let mass = t.ps.(i + 1) -. t.ps.(i) in
    acc := !acc +. (mass *. ((t.xs.(i) +. t.xs.(i + 1)) /. 2.0))
  done;
  !acc

let points t = Array.init (Array.length t.xs) (fun i -> (t.xs.(i), t.ps.(i)))
