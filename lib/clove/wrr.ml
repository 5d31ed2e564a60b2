type t = { weights : float array; current : float array }

let create ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Wrr.create: empty";
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Wrr.create: non-positive total weight";
  Array.iter (fun w -> if w < 0.0 then invalid_arg "Wrr.create: negative weight") weights;
  { weights = Array.copy weights; current = Array.make n 0.0 }

let pick t =
  let n = Array.length t.weights in
  let total = ref 0.0 in
  let best = ref 0 in
  for i = 0 to n - 1 do
    t.current.(i) <- t.current.(i) +. t.weights.(i);
    total := !total +. t.weights.(i);
    if t.current.(i) > t.current.(!best) then best := i
  done;
  t.current.(!best) <- t.current.(!best) -. !total;
  !best

let set_weight t i w = t.weights.(i) <- Float.max 0.0 w
let weight t i = t.weights.(i)
let weights t = Array.copy t.weights

let normalize t =
  let total = Array.fold_left ( +. ) 0.0 t.weights in
  if total > 0.0 then
    Array.iteri (fun i w -> t.weights.(i) <- w /. total) t.weights
