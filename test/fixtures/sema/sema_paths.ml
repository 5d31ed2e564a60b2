(* The path-sensitive rules: test_sema re-reads this unit under pretend
   source paths (lib/faults/, the conversion and parallel whitelists). *)
open Engine

let literal_stream = Rng.create 42
let seeded_stream seed = Rng.create seed
let split_stream parent = Rng.split_named parent "flap"
let raw_instant = Sim_time.of_ns 5
let worker work = Domain.spawn work
let slot = Domain.DLS.new_key (fun () -> 0)
