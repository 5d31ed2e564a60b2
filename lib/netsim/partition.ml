(* Fabric partitioning for conservative PDES.

   A partition assigns every topology node to a shard and identifies the
   *cross links* — directed links whose source and destination nodes live
   on different shards.  The safe lookahead window is the minimum
   propagation delay over those links: an event on one shard cannot
   affect another sooner than that, so per-window execution up to
   [min next event + window - 1] is causally safe (see {!Shard}).

   Each cross link owns a pre-sized exchange buffer.  During a window
   only the source shard appends to it (single writer); at the barrier,
   with every shard quiescent, the coordinator drains all buffers in a
   fixed order — edge-id order, a->b before b->a — re-injecting each
   delivery on the destination shard via {!Link.inject}.  Per-link
   deliver times are monotone and the drain preserves generation order,
   so injection is deterministic at any shard count.  Each delivery also
   carries its rank instant ([borns]: the departure instant, or into a
   switch the wire-delivery instant): the destination scheduler uses it
   as the event's same-timestamp tie-break rank, so a tie between an
   injected delivery and a locally scheduled event resolves exactly as
   the serial engine's single insertion clock would have resolved it
   (see {!Scheduler.inject_tag}). *)

type buffer = {
  link : Link.t;
  dest_shard : int;
  mutable times : int array; (* delivery time, absolute ns *)
  mutable borns : int array; (* rank instant, absolute ns *)
  mutable pkts : Packet.t array;
  mutable len : int;
}

type t = {
  nshards : int;
  window_ns : int;
  shard_of_node : int array;
  cross : (Topology.edge * int * int) list; (* edge, shard a, shard b *)
  mutable buffers : buffer array; (* fixed drain order, filled by [attach] *)
}

let window_ns t = t.window_ns

let shard_of_node t node =
  if node < 0 || node >= Array.length t.shard_of_node then
    invalid_arg "Partition.shard_of_node: unknown node";
  t.shard_of_node.(node)

let plan ~topo ~nshards ~shard_of_node =
  if nshards < 1 then invalid_arg "Partition.plan: nshards must be >= 1";
  let nodes = Topology.nodes topo in
  let shards =
    Array.init (Array.length nodes) (fun id ->
        let s = shard_of_node id in
        if s < 0 || s >= nshards then
          invalid_arg
            (Printf.sprintf "Partition.plan: node %d mapped to shard %d (of %d)"
               id s nshards);
        s)
  in
  let cross =
    List.filter_map
      (fun (e : Topology.edge) ->
        let sa = shards.(e.Topology.a) and sb = shards.(e.Topology.b) in
        if sa = sb then None else Some (e, sa, sb))
      (Topology.edges topo)
  in
  let window_ns =
    match cross with
    (* single shard: any horizon — lint: allow sema-time-boundary *)
    | [] -> Sim_time.span_ns (Sim_time.ms 1)
    | _ ->
      let w =
        List.fold_left
          (fun acc ((e : Topology.edge), _, _) ->
            (* lookahead = least cut-link latency, in ns — lint: allow sema-time-boundary *)
            min acc (Sim_time.span_ns e.Topology.delay))
          max_int cross
      in
      if w <= 0 then
        invalid_arg
          "Partition.plan: a cross-shard link has zero latency — no \
           positive lookahead window exists for this cut";
      w
  in
  { nshards; window_ns; shard_of_node = shards; cross; buffers = [||] }

(* sized for a healthy burst; growth doubles (amortized, and only ever
   under sustained same-window bursts beyond this) *)
let initial_capacity = 256

let make_buffer link dest_shard =
  {
    link;
    dest_shard;
    times = Array.make initial_capacity 0;
    borns = Array.make initial_capacity 0;
    pkts = Array.make initial_capacity Packet.placeholder;
    len = 0;
  }

let buf_push b ~born_ns ~time_ns pkt =
  let cap = Array.length b.times in
  if b.len = cap then begin
    let times = Array.make (2 * cap) 0 in
    let borns = Array.make (2 * cap) 0 in
    let pkts = Array.make (2 * cap) Packet.placeholder in
    Array.blit b.times 0 times 0 cap;
    Array.blit b.borns 0 borns 0 cap;
    Array.blit b.pkts 0 pkts 0 cap;
    b.times <- times;
    b.borns <- borns;
    b.pkts <- pkts
  end;
  b.times.(b.len) <- time_ns;
  b.borns.(b.len) <- born_ns;
  b.pkts.(b.len) <- pkt;
  b.len <- b.len + 1

let attach t ~fabric ~scheds =
  if Array.length scheds <> t.nshards then
    invalid_arg "Partition.attach: scheduler count does not match the plan";
  let buffers =
    List.concat_map
      (fun ((e : Topology.edge), sa, sb) ->
        let l_ab, l_ba = Fabric.links_of_edge fabric e in
        [ make_buffer l_ab sb; make_buffer l_ba sa ])
      t.cross
  in
  let buffers = Array.of_list buffers in
  Array.iter
    (fun b ->
      Link.set_boundary b.link ~dest_sched:scheds.(b.dest_shard)
        ~push:(fun ~born_ns ~time_ns pkt -> buf_push b ~born_ns ~time_ns pkt))
    buffers;
  t.buffers <- buffers

(* barrier drain: every scheduler is quiescent; fixed buffer order and
   per-buffer FIFO order make injection deterministic *)
let rec drain_buffers t i injected =
  if i = Array.length t.buffers then injected
  else begin
    let b = t.buffers.(i) in
    for j = 0 to b.len - 1 do
      Link.inject b.link ~time_ns:b.times.(j) ~born_ns:b.borns.(j) b.pkts.(j);
      b.pkts.(j) <- Packet.placeholder
    done;
    let moved = b.len in
    b.len <- 0;
    drain_buffers t (i + 1) (injected + moved)
  end

let exchange t = drain_buffers t 0 0
