(* Mirrors lib/faults/: any Rng.create here is sema-fault-rng. *)
let stream seed = Engine.Rng.create seed
