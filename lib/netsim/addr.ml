type t = int

let of_int i = if i < 0 then invalid_arg "Addr.of_int: negative" else i
let to_int t = t
let equal = Int.equal
let pp fmt t = Format.fprintf fmt "h%d" t
