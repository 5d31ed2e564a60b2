type port_state = {
  hops : Packet.hop Int_table.t; (* ttl -> hop *)
  mutable reached_ttl : int; (* smallest ttl whose probe reached the host; -1 = none *)
}

let no_hop = { Packet.hop_node = -1; hop_port = -1 }

(* the dummy of every port table: never mutated, never returned *)
let no_port = { hops = Int_table.create ~capacity:2 ~dummy:no_hop; reached_ttl = -1 }

type dst_state = {
  dst : Addr.t;
  rng : Rng.t; (* per-destination stream: draws never shift other dsts *)
  mutable cycle_first : int; (* [next_probe] when this cycle's probes went out *)
  port_states : port_state Int_table.t;
  mutable traced : int list; (* this cycle's ports, ascending: [port_states]' keys *)
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
  dsts : dst_state Int_table.t;
  no_dst : dst_state; (* [dsts]' dummy *)
  mutable stopped : bool;
}

(* Probe ids carry the destination key in the high bits so a reply maps
   back to its destination in O(1), independent of the order in which
   destinations were registered.  20 id bits allow ~1M outstanding probe
   ids per destination per daemon lifetime before wraparound, far beyond
   any experiment. *)
let probe_id_bits = 20
let probe_id_mask = (1 lsl probe_id_bits) - 1

let probe_ports = 32 (* fresh random source ports traced per cycle *)
let max_ttl = 8
let probe_timeout = Sim_time.ms 10 (* per-cycle reply deadline *)

(* consecutive cycles with zero reaching ports before the stale install
   is cleared (falling back to ECMP hashing) *)
let evict_after_cycles = 2

let create ~sched ~cfg ~rng ~host_addr ~tx ~on_paths =
  let no_dst =
    {
      dst = host_addr;
      rng;
      cycle_first = 0;
      port_states = Int_table.create ~capacity:2 ~dummy:no_port;
      traced = [];
      installed_ports = [];
      empty_cycles = 0;
      next_probe = 0;
    }
  in
  {
    sched;
    cfg;
    rng;
    host_addr;
    tx;
    on_paths;
    dsts = Int_table.create ~capacity:16 ~dummy:no_dst;
    no_dst;
    stopped = false;
  }

let stop t = t.stopped <- true
let random_port (st : dst_state) = 49152 + Rng.int st.rng 16384

let send_probe t st ~key ~port ~ttl =
  let id = (key lsl probe_id_bits) lor (st.next_probe land probe_id_mask) in
  st.next_probe <- st.next_probe + 1;
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
  (* Candidate order feeds the greedy disjoint-path pick, so visit this
     cycle's ports in ascending order, not in table order. *)
  let candidates =
    List.fold_left
      (fun acc port ->
        let ps = Int_table.find_default st.port_states port no_port in
        if ps.reached_ttl >= 1 then begin
          let rec collect ttl acc_hops =
            if ttl >= ps.reached_ttl then Some (List.rev acc_hops)
            else
              let hop = Int_table.find_default ps.hops ttl no_hop in
              if hop == no_hop then None (* lost reply: discard this port for the cycle *)
              else collect (ttl + 1) (hop :: acc_hops)
          in
          match collect 1 [] with
          | Some path -> (port, path) :: acc
          | None -> acc
        end
        else acc)
      [] st.traced
  in
  let picked = Clove_path.select_disjoint ~k:t.cfg.Clove_config.k_paths (List.rev candidates) in
  if picked <> [] then begin
    st.empty_cycles <- 0;
    st.installed_ports <- List.map fst picked;
    t.on_paths ~dst:st.dst picked
  end
  else begin
    (* zero usable paths this cycle: count consecutive dry cycles and,
       once the eviction threshold is reached, clear the install so the
       path table stops steering traffic into ports nobody has verified;
       the next cycles keep probing fresh random ports for rediscovery. *)
    st.empty_cycles <- st.empty_cycles + 1;
    if
      t.cfg.Clove_config.failure_recovery
      && st.installed_ports <> []
      && st.empty_cycles >= evict_after_cycles
    then begin
      st.installed_ports <- [];
      t.on_paths ~dst:st.dst []
    end
  end

let rec run_cycle t ~key st =
  if not t.stopped then begin
    st.cycle_first <- st.next_probe;
    Int_table.clear st.port_states;
    (* trace currently installed ports plus fresh random ones *)
    let fresh = List.init probe_ports (fun _ -> random_port st) in
    let ports = List.sort_uniq Int.compare (st.installed_ports @ fresh) in
    st.traced <- ports;
    List.iter
      (fun port ->
        Int_table.set st.port_states port
          { hops = Int_table.create ~capacity:8 ~dummy:no_hop; reached_ttl = -1 };
        (* probe [cycle_first + i] of the cycle has ttl [i mod max_ttl + 1] *)
        for ttl = 1 to max_ttl do
          send_probe t st ~key ~port ~ttl
        done)
      ports;
    Scheduler.schedule t.sched ~after:probe_timeout (fun () ->
        if not t.stopped then finalize_cycle t st);
    Scheduler.schedule t.sched ~after:t.cfg.Clove_config.probe_interval (fun () ->
        run_cycle t ~key st)
  end

let add_destination t dst =
  let key = Addr.to_int dst in
  if not (Int_table.mem t.dsts key) then begin
    let st =
      {
        dst;
        rng = Rng.split_named t.rng ("dst:" ^ string_of_int key);
        cycle_first = 0;
        port_states = Int_table.create ~capacity:32 ~dummy:no_port;
        traced = [];
        installed_ports = [];
        empty_cycles = 0;
        next_probe = 0;
      }
    in
    Int_table.set t.dsts key st;
    (* Desynchronize the first cycle with a small deterministic jitter so
       daemons started at the same instant do not emit interleavable probe
       storms whose relative order a schedule perturbation could flip.
       Capped at half the probe timeout so discovery still completes
       within [probe_timeout * 3/2] of registration. *)
    let jitter = Sim_time.mul_span probe_timeout (Rng.float st.rng 0.5) in
    Scheduler.schedule t.sched ~after:jitter (fun () -> run_cycle t ~key st)
  end

let on_reply t (reply : Packet.probe_reply) =
  let key = reply.Packet.reply_probe_id lsr probe_id_bits in
  let st = Int_table.find_default t.dsts key t.no_dst in
  (* A cycle sends all its probes at once, numbered from [cycle_first]: a
     reply whose id falls outside them (mod the id bits) answers an
     earlier cycle.  A probe draws at most one reply. *)
  let i = (reply.Packet.reply_probe_id - st.cycle_first) land probe_id_mask in
  if i < st.next_probe - st.cycle_first then begin
    let ttl = (i mod max_ttl) + 1 in
    let ps = Int_table.find_default st.port_states reply.Packet.reply_port no_port in
    if ps != no_port then
      match reply.Packet.reply_hop with
      | Some hop -> Int_table.set ps.hops ttl hop
      | None -> if ps.reached_ttl < 0 || ttl < ps.reached_ttl then ps.reached_ttl <- ttl
  end

let answer_probe ~remaining_ttl (p : Packet.probe_info) =
  Packet.make ~size:64
    (Packet.Probe_reply
       {
         Packet.reply_to = p.Packet.probe_src;
         reply_probe_id = p.Packet.probe_id;
         reply_port = p.Packet.probe_port;
         reply_ttl = remaining_ttl;
         reply_hop = None;
       })
