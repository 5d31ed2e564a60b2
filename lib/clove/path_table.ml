(* The weight floor and the recovery pass's per-tick rates; the timers are
   multiples of the RTT estimate, derived once per table in [create]. *)
let min_weight = 0.02 (* so no path starves forever *)
let suspect_decay = 0.5 (* share of a suspect path's weight cut per tick *)
let weight_recovery_rate = 0.25 (* per-tick drift of a quiet path to uniform *)

type t = {
  sched : Scheduler.t;
  cfg : Clove_config.t;
  (* how long a path counts as congested after feedback, for the "all
     paths congested" escalation to the guest *)
  congested_window : Sim_time.span;
  (* samples older than this are stale (see [effective_sample]) *)
  staleness : Sim_time.span;
  (* an install vouches for its paths this long: a whole probe cycle
     (installs land one probe interval apart, plus the probe timeout) *)
  verification : Sim_time.span;
  (* transmissions with no returning evidence for this long make a path
     suspect: black-hole eviction, §3.1's "adapt to changes and failures" *)
  suspect_timeout : Sim_time.span;
  (* a path with no congestion feedback for this long regains weight
     toward uniform, so a transient failure does not permanently starve a
     healed path *)
  recovery_quiet : Sim_time.span;
  mutable ports : int array;
  mutable paths : Clove_path.t array;
  mutable wrr : Wrr.t option;
  (* the per-path cost Clove-INT and Clove-Latency minimize: INT's
     path-max utilization, or the one-way delay in seconds; 0 = unmeasured *)
  mutable samples : float array;
  (* [None] = never measured — distinct from a sample landing at t = 0 *)
  mutable sample_at : Sim_time.t option array;
  mutable last_congested : Sim_time.t array;
  mutable ever_congested : bool array;
  mutable last_tx : Sim_time.t array; (* last tenant packet sent via port *)
  mutable last_alive : Sim_time.t array; (* last proof the path still works *)
  mutable verified_at : Sim_time.t; (* last traceroute (re)install *)
  mutable port_index : int Int_table.t; (* port -> array index *)
}

let create ~sched ~cfg =
  let rtt = cfg.Clove_config.rtt_estimate in
  {
    sched;
    cfg;
    congested_window = Sim_time.mul_span rtt 4.0;
    staleness = Sim_time.mul_span rtt 50.0;
    verification = Sim_time.mul_span cfg.Clove_config.probe_interval 2.0;
    suspect_timeout = Sim_time.mul_span rtt 20.0;
    (* quiet window 4x the congestion-feedback cadence (congested_window
       = 4 rtt): a path still receiving marks never drifts, while weights
       skewed by a hotspot or fault that has cleared heal within a few
       maintain cycles.  Chaos-calibrated: gentler rates leave stale skew
       in place long enough to hurt the fault-free baseline more than the
       drift ever hurts a faulted run. *)
    recovery_quiet = Sim_time.mul_span rtt 16.0;
    ports = [||];
    paths = [||];
    wrr = None;
    samples = [||];
    sample_at = [||];
    last_congested = [||];
    ever_congested = [||];
    last_tx = [||];
    last_alive = [||];
    verified_at = Sim_time.zero;
    port_index = Int_table.create ~capacity:8 ~dummy:(-1);
  }

let check_weight_sum t ~label weights =
  if Array.length weights > 0 then begin
    let sum = Array.fold_left ( +. ) 0.0 weights in
    if Float.abs (sum -. 1.0) > 1e-6 then
      Scheduler.record_violation t.sched ~invariant:"weight-normalization"
        ~detail:
          (Printf.sprintf "Path_table.%s: %d weights sum to %.9f, expected 1" label
             (Array.length weights) sum)
  end

let clear t =
  t.ports <- [||];
  t.paths <- [||];
  t.wrr <- None;
  t.samples <- [||];
  t.sample_at <- [||];
  t.last_congested <- [||];
  t.ever_congested <- [||];
  t.last_tx <- [||];
  t.last_alive <- [||];
  Int_table.clear t.port_index

let install t pairs =
  if pairs = [] then clear t
  else begin
    (* a known path keeps its state, found by signature even when the port
       that maps to it changed; [-1] marks a newly discovered path *)
    let old_index = Int_table.create ~capacity:8 ~dummy:(-1) in
    Array.iteri
      (fun i path -> Int_table.set old_index (Clove_path.signature path) i)
      t.paths;
    let ports = Array.of_list (List.map fst pairs) in
    let paths = Array.of_list (List.map snd pairs) in
    let n = Array.length ports in
    let old =
      Array.map
        (fun path -> Int_table.find_default old_index (Clove_path.signature path) (-1))
        paths
    in
    let carry ~default prev =
      Array.map (fun j -> if j >= 0 then prev.(j) else default) old
    in
    let weights =
      carry ~default:1.0 (match t.wrr with Some w -> Wrr.weights w | None -> [||])
    in
    (* normalize weights to sum 1; if the carried weights had all decayed
       to ~0 (every path was suspect) fall back to uniform *)
    let total = Array.fold_left ( +. ) 0.0 weights in
    if total > 1e-9 then Array.iteri (fun i w -> weights.(i) <- w /. total) weights
    else Array.fill weights 0 n (1.0 /. float_of_int n);
    t.wrr <- Some (Wrr.create ~weights);
    if Scheduler.audit t.sched then check_weight_sum t ~label:"install" weights;
    t.samples <- carry ~default:0.0 t.samples;
    t.sample_at <- carry ~default:None t.sample_at;
    t.last_congested <- carry ~default:Sim_time.zero t.last_congested;
    t.ever_congested <- carry ~default:false t.ever_congested;
    t.last_tx <- carry ~default:Sim_time.zero t.last_tx;
    t.last_alive <- carry ~default:Sim_time.zero t.last_alive;
    t.ports <- ports;
    t.paths <- paths;
    (* an install only happens when probes completed the round trip, so it
       vouches for every path in the new set *)
    t.verified_at <- Scheduler.now t.sched;
    let idx = Int_table.create ~capacity:n ~dummy:(-1) in
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
  && Sim_time.(Scheduler.now t.sched >= add ar t.suspect_timeout)

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

let within t at span = Sim_time.(Scheduler.now t.sched < add at span)

(* staleness-aware view of path [i]'s sample: a fresh sample (within the
   staleness window) is taken at face value; an unmeasured or stale sample
   on a path verified within the last probe cycle reads as zero so traffic
   keeps probing it (the original Clove behavior); on an unverified or
   suspect path it reads as infinity so a black hole can never win a
   minimum *)
let effective_sample t i =
  if not t.cfg.Clove_config.failure_recovery then t.samples.(i)
  else if is_suspect t i then infinity
  else
    match t.sample_at.(i) with
    | Some ts when within t ts t.staleness -> t.samples.(i)
    | Some _ | None -> if within t t.verified_at t.verification then 0.0 else infinity

let pick_min_sample t =
  require_ready t "Path_table.pick_min_sample";
  let best = ref 0 in
  let best_v = ref (effective_sample t 0) in
  for i = 1 to Array.length t.ports - 1 do
    let v = effective_sample t i in
    (* strict [<] breaks ties toward the lowest index, deterministically *)
    if v < !best_v then begin
      best := i;
      best_v := v
    end
  done;
  t.ports.(!best)

let is_congested t i =
  let now = Scheduler.now t.sched in
  t.ever_congested.(i)
  && Sim_time.(now < add t.last_congested.(i) t.congested_window)

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
      let remaining = Float.max min_weight (wi -. cut) in
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
      if Scheduler.audit t.sched then
        check_weight_sum t ~label:"note_congested" (Wrr.weights w))

let note_sample t ~port ~value =
  let i = Int_table.find_default t.port_index port (-1) in
  if i >= 0 then begin
    t.samples.(i) <- value;
    t.sample_at.(i) <- Some (Scheduler.now t.sched);
    t.last_alive.(i) <- Scheduler.now t.sched
  end

let latency_spread t =
  if not (ready t) then Sim_time.zero_span
  else begin
    let lo = Array.fold_left Float.min infinity t.samples in
    let hi = Array.fold_left Float.max 0.0 t.samples in
    Sim_time.span_of_sec (Float.max 0.0 (hi -. lo))
  end

let weights t = match t.wrr with Some w -> Wrr.weights w | None -> [||]
let samples t = Array.copy t.samples

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
           let keep = 1.0 -. suspect_decay in
           for i = 0 to n - 1 do
             if sus.(i) then Wrr.set_weight w i (Wrr.weight w i *. keep)
           done);
        (* recovery toward uniform: a path that has stayed quiet (no
           congestion feedback for the recovery window) and is not suspect
           regains weight it lost during a past hotspot or fault *)
        let quiet i =
          (not t.ever_congested.(i))
          || Sim_time.(now >= add t.last_congested.(i) t.recovery_quiet)
        in
        for i = 0 to n - 1 do
          if (not sus.(i)) && quiet i then begin
            let wi = Wrr.weight w i in
            if wi < uniform then
              Wrr.set_weight w i
                (wi +. (weight_recovery_rate *. (uniform -. wi)))
          end
        done
      end;
      Wrr.normalize w;
      if Scheduler.audit t.sched then
        check_weight_sum t ~label:"maintain" (Wrr.weights w)
