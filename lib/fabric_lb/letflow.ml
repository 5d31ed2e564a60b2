(* the LetFlow paper's switch implementation *)
let flowlet_gap = Sim_time.us 500

let picker table rng _sw ~in_port pkt ~candidates =
  ignore in_port;
  let n = Array.length candidates in
  if n = 1 then candidates.(0)
  else
    Flowlet_route.route table pkt ~candidates ~choose:(fun () ->
        candidates.(Rng.int rng n))

let install ~rng fabric =
  Array.iter
    (fun sw ->
      let table = Flowlet_route.table sw ~gap:flowlet_gap in
      let rng = Rng.split_named rng ("switch:" ^ string_of_int (Switch.id sw)) in
      Switch.set_picker sw (picker table rng))
    (Fabric.switches fabric)
