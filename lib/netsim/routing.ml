let distances ~mode topo ~dst =
  let dist = Det.create mode 64 in
  Hashtbl.replace dist dst 0;
  let q = Queue.create () in
  Queue.add dst q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    (* packets are never relayed through a host other than the endpoints *)
    if u = dst || not (Topology.is_host topo u) then begin
      (* [u] is inserted into [dist] before it is ever enqueued, so the
         key is always present — lint: allow hashtbl-find *)
      let du = Hashtbl.find dist u in
      List.iter
        (fun v ->
          if not (Hashtbl.mem dist v) then begin
            Hashtbl.replace dist v (du + 1);
            Queue.add v q
          end)
        (Topology.live_neighbors topo u)
    end
  done;
  dist

let next_hops ~mode topo ~dst =
  let dist = distances ~mode topo ~dst in
  let result = Det.create mode 64 in
  Det.iter_sorted ~compare:Int.compare
    (fun u du ->
      if u <> dst then begin
        let hops =
          List.filter
            (fun v ->
              match Hashtbl.find_opt dist v with
              | Some dv -> dv = du - 1
              | None -> false)
            (Topology.live_neighbors topo u)
        in
        if hops <> [] then Hashtbl.replace result u hops
      end)
    dist;
  result
