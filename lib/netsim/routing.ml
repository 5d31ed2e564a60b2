let distances topo ~dst =
  let dist = Int_table.create ~capacity:64 ~dummy:(-1) in
  Int_table.set dist dst 0;
  let q = Queue.create () in
  Queue.add dst q;
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    (* packets are never relayed through a host other than the endpoints *)
    if u = dst || not (Topology.is_host topo u) then begin
      (* [u] was inserted before it was enqueued *)
      let du = Int_table.find_default dist u (-1) in
      List.iter
        (fun v ->
          if not (Int_table.mem dist v) then begin
            Int_table.set dist v (du + 1);
            Queue.add v q
          end)
        (Topology.live_neighbors topo u)
    end
  done;
  dist

let next_hops topo ~dst =
  let dist = distances topo ~dst in
  let result = Int_table.create ~capacity:64 ~dummy:[] in
  Int_table.iter_sorted
    (fun u du ->
      if u <> dst then begin
        let hops =
          List.filter
            (fun v -> Int_table.find_default dist v (-1) = du - 1)
            (Topology.live_neighbors topo u)
        in
        if hops <> [] then Int_table.set result u hops
      end)
    dist;
  result
