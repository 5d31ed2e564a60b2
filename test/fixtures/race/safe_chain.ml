(* Seeded clean fixture: the same shape as racy_chain, but every
   mutation reachable from the parallel entry point is guarded by one
   of the three recognized disciplines — Atomic, a mutex taken in the
   mutating function, or Domain.DLS.  clove-check must report nothing. *)

let total = Atomic.make 0

let table : (int, int) Hashtbl.t = Hashtbl.create 16
let table_lock = Mutex.create ()

let scratch = Domain.DLS.new_key (fun () -> Buffer.create 64)

let count _x = Atomic.incr total

let put x =
  Mutex.lock table_lock;
  Hashtbl.replace table x (x * 2);
  Mutex.unlock table_lock

let local_note x =
  let buf = Domain.DLS.get scratch in
  Buffer.add_string buf (string_of_int x)

let work x =
  count x;
  put x;
  local_note x;
  x

let run_all xs = Engine.Domain_pool.run work xs
