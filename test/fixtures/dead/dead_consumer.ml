(* Uses two of Dead_lib's three values, each the way the syntactic
   matcher got wrong, the type that shares the dead value's name, and
   Whole_lib only as a whole module. *)

module D = Dead_lib

let sum a b = Dead_lib.(a +! b)
let width : Dead_lib.span = D.span 3
let never : Dead_lib.stale option = None

module Copy = struct
  include Whole_lib
end
