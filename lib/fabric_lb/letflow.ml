type t = {
  tables : (int, int Clove.Flowlet.t) Hashtbl.t; (* switch id -> flowlet table *)
  rngs : (int, Rng.t) Hashtbl.t;
}

let picker t sw ~in_port pkt ~candidates =
  ignore in_port;
  let n = Array.length candidates in
  if n = 1 then candidates.(0)
  else begin
    let lookup tbl =
      match Hashtbl.find_opt tbl (Switch.id sw) with
      | Some v -> v
      | None -> invalid_arg "Letflow.picker: switch not installed"
    in
    let rng = lookup t.rngs in
    Flowlet_route.route (lookup t.tables) pkt ~candidates ~choose:(fun () ->
        candidates.(Rng.int rng n))
  end

(* the LetFlow paper's switch implementation *)
let flowlet_gap = Sim_time.us 500

let install ~rng fabric =
  let t = { tables = Det.create 8; rngs = Det.create 8 } in
  Array.iter
    (fun sw ->
      Hashtbl.replace t.tables (Switch.id sw)
        (Flowlet_route.table sw ~gap:flowlet_gap);
      Hashtbl.replace t.rngs (Switch.id sw)
        (Rng.split_named rng ("switch:" ^ string_of_int (Switch.id sw)));
      Switch.set_picker sw (picker t))
    (Fabric.switches fabric);
  t
