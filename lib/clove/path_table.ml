type t = {
  sched : Scheduler.t;
  cfg : Clove_config.t;
  mutable ports : int array;
  mutable paths : Clove_path.t array;
  mutable wrr : Wrr.t option;
  mutable utils : float array;
  mutable delays : float array; (* one-way delay, seconds; 0 = unmeasured *)
  (* [None] = never measured — distinct from a sample landing at t = 0 *)
  mutable util_at : Sim_time.t option array;
  mutable delay_at : Sim_time.t option array;
  mutable last_congested : Sim_time.t array;
  mutable ever_congested : bool array;
  mutable last_tx : Sim_time.t array; (* last tenant packet sent via port *)
  mutable last_alive : Sim_time.t array; (* last proof the path still works *)
  mutable verified_at : Sim_time.t; (* last traceroute (re)install *)
  mutable port_index : int Int_table.t; (* port -> array index *)
}

let create ~sched ~cfg =
  {
    sched;
    cfg;
    ports = [||];
    paths = [||];
    wrr = None;
    utils = [||];
    delays = [||];
    util_at = [||];
    delay_at = [||];
    last_congested = [||];
    ever_congested = [||];
    last_tx = [||];
    last_alive = [||];
    verified_at = Sim_time.zero;
    port_index = Int_table.create ~capacity:8 ~dummy:(-1) ();
  }

let clear t =
  t.ports <- [||];
  t.paths <- [||];
  t.wrr <- None;
  t.utils <- [||];
  t.delays <- [||];
  t.util_at <- [||];
  t.delay_at <- [||];
  t.last_congested <- [||];
  t.ever_congested <- [||];
  t.last_tx <- [||];
  t.last_alive <- [||];
  Int_table.clear t.port_index

let install t pairs =
  if pairs = [] then clear t
  else begin
    (* remember state of known paths by signature *)
    let old_state = Hashtbl.create 8 in
    Array.iteri
      (fun i path ->
        let w = match t.wrr with Some w -> Wrr.weight w i | None -> 1.0 in
        Hashtbl.replace old_state (Clove_path.signature path)
          ( (w, t.utils.(i), t.delays.(i), t.last_congested.(i), t.ever_congested.(i)),
            (t.util_at.(i), t.delay_at.(i), t.last_tx.(i), t.last_alive.(i)) ))
      t.paths;
    let n = List.length pairs in
    let ports = Array.make n 0
    and paths = Array.make n []
    and weights = Array.make n 1.0
    and utils = Array.make n 0.0
    and delays = Array.make n 0.0
    and util_at = Array.make n None
    and delay_at = Array.make n None
    and congested = Array.make n Sim_time.zero
    and ever = Array.make n false
    and last_tx = Array.make n Sim_time.zero
    and last_alive = Array.make n Sim_time.zero in
    List.iteri
      (fun i (port, path) ->
        ports.(i) <- port;
        paths.(i) <- path;
        match Hashtbl.find_opt old_state (Clove_path.signature path) with
        | Some ((w, u, d, c, e), (ua, da, tx, al)) ->
          weights.(i) <- w;
          utils.(i) <- u;
          delays.(i) <- d;
          util_at.(i) <- ua;
          delay_at.(i) <- da;
          congested.(i) <- c;
          ever.(i) <- e;
          last_tx.(i) <- tx;
          last_alive.(i) <- al
        | None -> ())
      pairs;
    (* normalize weights to sum 1; if the carried weights had all decayed
       to ~0 (every path was suspect) fall back to uniform *)
    let total = Array.fold_left ( +. ) 0.0 weights in
    if total > 1e-9 then Array.iteri (fun i w -> weights.(i) <- w /. total) weights
    else Array.fill weights 0 n (1.0 /. float_of_int n);
    t.ports <- ports;
    t.paths <- paths;
    t.wrr <- Some (Wrr.create ~weights);
    if !Analysis.Audit.on then
      Analysis.Audit.check_weight_sum ~label:"Path_table.install" weights;
    t.utils <- utils;
    t.delays <- delays;
    t.util_at <- util_at;
    t.delay_at <- delay_at;
    t.last_congested <- congested;
    t.ever_congested <- ever;
    t.last_tx <- last_tx;
    t.last_alive <- last_alive;
    (* an install only happens when probes completed the round trip, so it
       vouches for every path in the new set *)
    t.verified_at <- Scheduler.now t.sched;
    let idx = Int_table.create ~capacity:n ~dummy:(-1) () in
    Array.iteri (fun i p -> Int_table.set idx p i) ports;
    t.port_index <- idx
  end

let ready t = Array.length t.ports > 0
let ports t = Array.copy t.ports
let paths t = Array.copy t.paths
let port_count t = Array.length t.ports

let require_ready t fn =
  if not (ready t) then invalid_arg (fn ^ ": no paths installed")

(* liveness reference: the most recent of explicit liveness evidence
   (feedback, ACK credit) and the last traceroute verification *)
let alive_ref t i = Sim_time.max t.last_alive.(i) t.verified_at

(* a path is suspect when we have sent traffic on it after the last
   liveness evidence and a full timeout has elapsed without any echo —
   merely idle paths (no tx since evidence) are never suspect *)
let is_suspect t i =
  t.cfg.Clove_config.failure_recovery
  &&
  let ar = alive_ref t i in
  Sim_time.(t.last_tx.(i) > ar)
  && Sim_time.(
       Scheduler.now t.sched >= add ar t.cfg.Clove_config.path_suspect_timeout)

let suspects t = Array.init (Array.length t.ports) (fun i -> is_suspect t i)

let note_tx t ~port =
  if t.cfg.Clove_config.failure_recovery then
    let i = Int_table.find_default t.port_index port (-1) in
    if i >= 0 then t.last_tx.(i) <- Scheduler.now t.sched

let note_alive t ~port =
  let i = Int_table.find_default t.port_index port (-1) in
  if i >= 0 then t.last_alive.(i) <- Scheduler.now t.sched

let pick_wrr t =
  require_ready t "Path_table.pick_wrr";
  match t.wrr with
  | Some w -> t.ports.(Wrr.pick w)
  | None -> assert false

let pick_random t rng =
  require_ready t "Path_table.pick_random";
  t.ports.(Rng.int rng (Array.length t.ports))

let fresh t at =
  Sim_time.(Scheduler.now t.sched < add at t.cfg.Clove_config.path_staleness)

(* staleness-aware view of a measurement: a fresh sample is taken at face
   value; an unmeasured or stale sample on a recently verified path reads
   as zero so traffic keeps probing it (the original Clove behavior); a
   stale sample on an unverified or suspect path reads as infinity so a
   black hole can never win a minimum *)
let effective_sample t ~value ~at i =
  if not t.cfg.Clove_config.failure_recovery then value
  else if is_suspect t i then infinity
  else
    match at with
    | Some ts when fresh t ts -> value
    | Some _ | None -> if fresh t t.verified_at then 0.0 else infinity

let pick_effective_min t values ats =
  let best = ref 0 in
  let best_v = ref (effective_sample t ~value:values.(0) ~at:ats.(0) 0) in
  for i = 1 to Array.length values - 1 do
    let v = effective_sample t ~value:values.(i) ~at:ats.(i) i in
    (* strict [<] breaks ties toward the lowest index, deterministically *)
    if v < !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let pick_least_utilized t =
  require_ready t "Path_table.pick_least_utilized";
  t.ports.(pick_effective_min t t.utils t.util_at)

let pick_min_latency t =
  require_ready t "Path_table.pick_min_latency";
  t.ports.(pick_effective_min t t.delays t.delay_at)

let is_congested t i =
  let now = Scheduler.now t.sched in
  t.ever_congested.(i)
  && Sim_time.(now < add t.last_congested.(i) t.cfg.Clove_config.congested_window)

let note_congested t ~port =
  match Int_table.find_opt t.port_index port with
  | None -> ()
  | Some i -> (
    match t.wrr with
    | None -> ()
    | Some w ->
      t.last_congested.(i) <- Scheduler.now t.sched;
      t.ever_congested.(i) <- true;
      (* congestion feedback proves the path still carries packets *)
      t.last_alive.(i) <- Scheduler.now t.sched;
      let n = Array.length t.ports in
      let wi = Wrr.weight w i in
      let cut = wi *. t.cfg.Clove_config.weight_cut in
      let remaining = Float.max t.cfg.Clove_config.min_weight (wi -. cut) in
      let cut = wi -. remaining in
      (* spread the removed weight equally across uncongested paths; if all
         others are congested too, spread over everyone else *)
      let uncongested = ref [] in
      for j = 0 to n - 1 do
        if j <> i && not (is_congested t j) then uncongested := j :: !uncongested
      done;
      let targets =
        if !uncongested <> [] then !uncongested
        else List.init n (fun j -> j) |> List.filter (fun j -> j <> i)
      in
      (match targets with
      | [] -> () (* single path: nothing to shift to *)
      | _ ->
        Wrr.set_weight w i remaining;
        let share = cut /. float_of_int (List.length targets) in
        List.iter (fun j -> Wrr.set_weight w j (Wrr.weight w j +. share)) targets);
      Wrr.normalize w;
      if !Analysis.Audit.on then
        Analysis.Audit.check_weight_sum ~label:"Path_table.note_congested"
          (Wrr.weights w))

let note_util t ~port ~util =
  let i = Int_table.find_default t.port_index port (-1) in
  if i >= 0 then begin
    t.utils.(i) <- util;
    t.util_at.(i) <- Some (Scheduler.now t.sched);
    t.last_alive.(i) <- Scheduler.now t.sched
  end

let note_latency t ~port ~delay =
  let i = Int_table.find_default t.port_index port (-1) in
  if i >= 0 then begin
    t.delays.(i) <- Sim_time.span_to_sec delay;
    t.delay_at.(i) <- Some (Scheduler.now t.sched);
    t.last_alive.(i) <- Scheduler.now t.sched
  end

let latency_spread t =
  if not (ready t) then Sim_time.zero_span
  else begin
    let lo = Array.fold_left Float.min infinity t.delays in
    let hi = Array.fold_left Float.max 0.0 t.delays in
    Sim_time.span_of_sec (Float.max 0.0 (hi -. lo))
  end

let weights t = match t.wrr with Some w -> Wrr.weights w | None -> [||]
let utilization t = Array.copy t.utils
let latencies t = Array.map Sim_time.span_of_sec t.delays

let all_congested t =
  ready t
  &&
  let n = Array.length t.ports in
  let rec go i = i >= n || (is_congested t i && go (i + 1)) in
  go 0

let maintain t =
  if t.cfg.Clove_config.failure_recovery && ready t then
    match t.wrr with
    | None -> ()
    | Some w ->
      let n = Array.length t.ports in
      let now = Scheduler.now t.sched in
      let any_suspect = ref false and all_suspect = ref true in
      let sus =
        Array.init n (fun i ->
            let s = is_suspect t i in
            if s then any_suspect := true else all_suspect := false;
            s)
      in
      let uniform = 1.0 /. float_of_int n in
      if !all_suspect then
        (* every path looks dead: there is no usable signal left to
           discriminate, so fall back to uniform spraying rather than
           decaying the weight sum toward zero (Wrr.normalize would
           refuse a zero total and the weight-sum audit would trip) *)
        for i = 0 to n - 1 do
          Wrr.set_weight w i uniform
        done
      else begin
        (if !any_suspect then
           (* black-hole eviction: geometric decay drives a dead path's
              share of the (renormalized) weight sum to zero *)
           let keep = 1.0 -. t.cfg.Clove_config.suspect_decay in
           for i = 0 to n - 1 do
             if sus.(i) then Wrr.set_weight w i (Wrr.weight w i *. keep)
           done);
        (* recovery toward uniform: a path that has stayed quiet (no
           congestion feedback for the recovery window) and is not suspect
           regains weight it lost during a past hotspot or fault *)
        let quiet i =
          (not t.ever_congested.(i))
          || Sim_time.(
               now
               >= add t.last_congested.(i)
                    t.cfg.Clove_config.weight_recovery_quiet)
        in
        for i = 0 to n - 1 do
          if (not sus.(i)) && quiet i then begin
            let wi = Wrr.weight w i in
            if wi < uniform then
              Wrr.set_weight w i
                (wi +. (t.cfg.Clove_config.weight_recovery_rate *. (uniform -. wi)))
          end
        done
      end;
      Wrr.normalize w;
      if !Analysis.Audit.on then
        Analysis.Audit.check_weight_sum ~label:"Path_table.maintain"
          (Wrr.weights w)
