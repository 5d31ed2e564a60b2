type port_state = {
  hops : (int, Packet.hop) Hashtbl.t; (* ttl -> hop *)
  mutable reached_ttl : int; (* smallest ttl whose probe reached the host; -1 = none *)
}

type dst_state = {
  dst : Addr.t;
  rng : Rng.t; (* per-destination stream: draws never shift other dsts *)
  pending : (int, int * int) Hashtbl.t; (* probe_id -> (port, ttl) *)
  mutable port_states : (int, port_state) Hashtbl.t;
  mutable installed_ports : int list;
  mutable empty_cycles : int; (* consecutive cycles with zero usable paths *)
  mutable next_probe : int;
}

type t = {
  sched : Scheduler.t;
  cfg : Clove_config.t;
  rng : Rng.t;
  host_addr : Addr.t;
  tx : Packet.t -> unit;
  on_paths : dst:Addr.t -> (int * Clove_path.t) list -> unit;
  dsts : (int, dst_state) Hashtbl.t;
  mutable stopped : bool;
}

(* Probe ids carry the destination key in the high bits so a reply maps
   back to its destination in O(1), independent of the order in which
   destinations were registered.  20 id bits allow ~1M outstanding probe
   ids per destination per daemon lifetime before wraparound, far beyond
   any experiment. *)
let probe_id_bits = 20
let probe_id_mask = (1 lsl probe_id_bits) - 1

let create ~sched ~cfg ~rng ~host_addr ~tx ~on_paths =
  {
    sched;
    cfg;
    rng;
    host_addr;
    tx;
    on_paths;
    dsts = Det.create 16;
    stopped = false;
  }

let stop t = t.stopped <- true
let random_port (st : dst_state) = 49152 + Rng.int st.rng 16384

let send_probe t st ~key ~port ~ttl =
  let id = (key lsl probe_id_bits) lor (st.next_probe land probe_id_mask) in
  st.next_probe <- st.next_probe + 1;
  Hashtbl.replace st.pending id (port, ttl);
  let pkt =
    Packet.make ~ttl ~size:(64 + Packet.encap_header_bytes)
      (Packet.Probe
         {
           Packet.probe_id = id;
           probe_src = t.host_addr;
           probe_dst = st.dst;
           probe_port = port;
         })
  in
  pkt.Packet.encap <-
    Some
      {
        Packet.src_hv = t.host_addr;
        dst_hv = st.dst;
        src_port = port;
        dst_port = Packet.stt_port;
        feedback = None;
        cell = None;
      };
  t.tx pkt

let finalize_cycle t st =
  (* Candidate order feeds the greedy disjoint-path pick, so iterate the
     port table in sorted order rather than bucket order. *)
  let candidates =
    Det.fold_sorted ~compare:Int.compare
      (fun port ps acc ->
        if ps.reached_ttl >= 1 then begin
          let rec collect ttl acc_hops =
            if ttl >= ps.reached_ttl then Some (List.rev acc_hops)
            else
              match Hashtbl.find_opt ps.hops ttl with
              | Some hop -> collect (ttl + 1) (hop :: acc_hops)
              | None -> None (* lost reply: discard this port for the cycle *)
          in
          match collect 1 [] with
          | Some path -> (port, path) :: acc
          | None -> acc
        end
        else acc)
      st.port_states []
  in
  let picked = Clove_path.select_disjoint ~k:t.cfg.Clove_config.k_paths (List.rev candidates) in
  if picked <> [] then begin
    st.empty_cycles <- 0;
    st.installed_ports <- List.map fst picked;
    t.on_paths ~dst:st.dst picked
  end
  else begin
    (* zero usable paths this cycle: previously the stale install simply
       stayed in place forever.  Count consecutive dry cycles and, once
       the eviction threshold is reached, clear the install so the path
       table stops steering traffic into ports nobody has verified; the
       next cycles keep probing fresh random ports for rediscovery. *)
    st.empty_cycles <- st.empty_cycles + 1;
    if
      t.cfg.Clove_config.failure_recovery
      && st.installed_ports <> []
      && st.empty_cycles >= t.cfg.Clove_config.evict_after_cycles
    then begin
      st.installed_ports <- [];
      t.on_paths ~dst:st.dst []
    end
  end

let rec run_cycle t ~key st =
  if not t.stopped then begin
    Hashtbl.reset st.pending;
    st.port_states <- Det.create 32;
    (* trace currently installed ports plus fresh random ones *)
    let fresh = List.init t.cfg.Clove_config.probe_ports (fun _ -> random_port st) in
    let ports = List.sort_uniq Int.compare (st.installed_ports @ fresh) in
    List.iter
      (fun port ->
        Hashtbl.replace st.port_states port { hops = Det.create 8; reached_ttl = -1 };
        for ttl = 1 to t.cfg.Clove_config.max_ttl do
          send_probe t st ~key ~port ~ttl
        done)
      ports;
    let (_ : Scheduler.handle) =
      Scheduler.schedule t.sched ~after:t.cfg.Clove_config.probe_timeout (fun () ->
          if not t.stopped then finalize_cycle t st)
    in
    let (_ : Scheduler.handle) =
      Scheduler.schedule t.sched ~after:t.cfg.Clove_config.probe_interval (fun () ->
          run_cycle t ~key st)
    in
    ()
  end

let add_destination t dst =
  let key = Addr.to_int dst in
  if not (Hashtbl.mem t.dsts key) then begin
    let st =
      {
        dst;
        rng = Rng.split_named t.rng ("dst:" ^ string_of_int key);
        pending = Det.create 64;
        port_states = Det.create 32;
        installed_ports = [];
        empty_cycles = 0;
        next_probe = 0;
      }
    in
    Hashtbl.replace t.dsts key st;
    (* Desynchronize the first cycle with a small deterministic jitter so
       daemons started at the same instant do not emit interleavable probe
       storms whose relative order a schedule perturbation could flip.
       Capped at half the probe timeout so discovery still completes
       within [probe_timeout * 3/2] of registration. *)
    let jitter =
      Sim_time.mul_span t.cfg.Clove_config.probe_timeout (Rng.float st.rng 0.5)
    in
    let (_ : Scheduler.handle) =
      Scheduler.schedule t.sched ~after:jitter (fun () -> run_cycle t ~key st)
    in
    ()
  end

let on_reply t (reply : Packet.probe_reply) =
  let key = reply.Packet.reply_probe_id lsr probe_id_bits in
  match Hashtbl.find_opt t.dsts key with
  | None -> ()
  | Some st -> (
    match Hashtbl.find_opt st.pending reply.Packet.reply_probe_id with
    | None -> ()
    | Some (port, ttl) -> (
      Hashtbl.remove st.pending reply.Packet.reply_probe_id;
      match Hashtbl.find_opt st.port_states port with
      | None -> ()
      | Some ps -> (
        match reply.Packet.reply_hop with
        | Some hop -> Hashtbl.replace ps.hops ttl hop
        | None ->
          if ps.reached_ttl < 0 || ttl < ps.reached_ttl then ps.reached_ttl <- ttl)))

let answer_probe ~host_addr ~remaining_ttl (p : Packet.probe_info) =
  Packet.make ~size:64
    (Packet.Probe_reply
       {
         Packet.reply_to = p.Packet.probe_src;
         reply_probe_id = p.Packet.probe_id;
         reply_port = p.Packet.probe_port;
         reply_ttl = remaining_ttl;
         reply_hop = None;
       })
  |> fun pkt ->
  ignore host_addr;
  pkt
