type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64, used to expand seeds into full state *)
let splitmix64 x =
  let open Int64 in
  let x = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let s = Int64.of_int seed in
  let a = splitmix64 s in
  let b = splitmix64 a in
  let c = splitmix64 b in
  let d = splitmix64 c in
  (* xoshiro state must not be all-zero; splitmix64 of distinct inputs never is *)
  { s0 = a; s1 = b; s2 = c; s3 = d }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split_named t name =
  let h = String.hash name in
  let base = Int64.to_int (splitmix64 (Int64.logxor t.s0 (Int64.of_int h))) land max_int in
  create base

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive"
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (bits64 t) 1) (Int64.of_int bound))

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) /. 9007199254740992.0 in
  x *. bound

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive"
  else
    let u = 1.0 -. float t 1.0 in
    -. mean *. log u

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array"
  else a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
