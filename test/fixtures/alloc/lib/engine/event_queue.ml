(* Seeded hidden compare: a one-slot heap named after the engine's, so
   clove-check classifies [Event_queue.add] as a mutator of its first
   argument.  Its [@inline] comparator carries no type annotation, so
   each compare runs at a type variable — a call into the generic
   structural compare, whatever the caller's key type.  The file
   mirrors lib/engine/, so [poly-compare] flags the compare, and the
   hot region must follow the mutator call into [add] and on into [lt]:
     Alloc_hot.on_key -> Event_queue.add -> Event_queue.lt. *)

type 'a t = { mutable top : 'a; mutable size : int }

let[@inline] lt a b = a < b

let add t key =
  if t.size = 0 || lt key t.top then t.top <- key;
  t.size <- t.size + 1
