type t = Packet.hop list

let signature path =
  (* path tables, and so the digests, are keyed on this generic hash — lint: allow poly-compare *)
  Hashtbl.hash (List.map (fun h -> (h.Packet.hop_node, h.Packet.hop_port)) path)

let same_hop x y = x.Packet.hop_node = y.Packet.hop_node && x.Packet.hop_port = y.Packet.hop_port

let shared_hops a b =
  List.fold_left
    (fun acc h ->
      if List.exists (fun h' -> h.Packet.hop_node = h'.Packet.hop_node && h.Packet.hop_port = h'.Packet.hop_port) b
      then acc + 1
      else acc)
    0 a

let pp fmt path =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.pp_print_string f " > ")
    (fun f h -> Format.fprintf f "sw%d.%d" h.Packet.hop_node h.Packet.hop_port)
    fmt path

let select_disjoint ~k candidates =
  if k <= 0 then []
  else begin
    (* collapse duplicate paths, first (lowest) port wins *)
    let sorted = List.sort (fun (p1, _) (p2, _) -> Int.compare p1 p2) candidates in
    let distinct =
      List.fold_left
        (fun acc (port, path) ->
          if List.exists (fun (_, p) -> List.equal same_hop p path) acc then acc
          else (port, path) :: acc)
        [] sorted
      |> List.rev
    in
    let cost picked path =
      List.fold_left (fun acc (_, p) -> acc + shared_hops path p) 0 picked
    in
    let rec grow picked (pool : (int * t) list) =
      if List.length picked >= k || pool = [] then List.rev picked
      else begin
        let best =
          List.fold_left
            (fun best cand ->
              match best with
              | None -> Some cand
              | Some (bport, bpath) ->
                let cport, cpath = cand in
                let cb = cost picked bpath and cc = cost picked cpath in
                let better =
                  cc < cb
                  || (cc = cb && List.length cpath < List.length bpath)
                  || (cc = cb && List.length cpath = List.length bpath && cport < bport)
                in
                if better then Some cand else best)
            None pool
        in
        match best with
        | None -> List.rev picked
        | Some ((bport, _) as chosen) ->
          let pool = List.filter (fun (p, _) -> p <> bport) pool in
          grow (chosen :: picked) pool
      end
    in
    grow [] distinct
  end
