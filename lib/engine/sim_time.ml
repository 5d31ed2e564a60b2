type t = int
type span = int

let zero = 0
let of_ns n = n
let to_ns t = t
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec s = int_of_float (s *. 1e9 +. 0.5)
let span_ns s = s
let span_of_ns n = n
let span_of_sec = sec
let span_to_sec s = float_of_int s /. 1e9
let add t s = t + s
let diff a b = if a < b then invalid_arg "Sim_time.diff: negative" else a - b
let ( < ) (a : int) b = Stdlib.( < ) a b
let ( > ) (a : int) b = Stdlib.( > ) a b
let ( >= ) (a : int) b = Stdlib.( >= ) a b
let max = Int.max
let compare_span = Int.compare
let add_span a b = Stdlib.( + ) a b
let sub_span a b = Int.max 0 (Stdlib.( - ) a b)

let mul_span s f =
  if Stdlib.( < ) f 0.0 then invalid_arg "Sim_time.mul_span: negative factor"
  else int_of_float ((float_of_int s *. f) +. 0.5)

let zero_span = 0
let of_span s = s
let to_sec t = float_of_int t /. 1e9

let tx_time ~bytes_len ~rate_bps =
  if Stdlib.( <= ) rate_bps 0.0 then invalid_arg "Sim_time.tx_time: rate must be positive"
  else int_of_float ((float_of_int bytes_len *. 8.0 /. rate_bps *. 1e9) +. 0.5)
