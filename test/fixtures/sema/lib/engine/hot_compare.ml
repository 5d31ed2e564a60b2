(* Mirrors lib/: here poly-compare also flags what ocamlopt compiles to
   a call into the generic structural compare or hash. *)
type shape = Dot | Box of int

(* min and max are functions, never specialized, even at int *)
let smaller (a : int) b = min a b
let widest xs = List.fold_left max 0 xs

(* = between two variant values walks both blocks *)
let same_shape (a : shape) b = a = b

(* the hash of a tuple walks the block *)
let pair_key (a : int) (b : int) = Hashtbl.hash (a, b)
