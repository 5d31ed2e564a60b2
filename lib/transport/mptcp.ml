type job = {
  size : int;
  mutable to_grant : int;  (* bytes not yet handed to a subflow *)
  mutable outstanding : int;  (* granted bytes not yet acknowledged *)
  mutable completed : bool;
  mutable pinned : int option;  (* small jobs ride a single subflow *)
  on_complete : unit -> unit;
}

type grant = { mutable g_bytes : int; mutable g_orphaned : bool; g_job : job }

type t = {
  (* set once by [create]: each subflow's coupling closes over [t] *)
  mutable senders : Tcp.sender array;
  mutable jobs : job list;  (* FIFO; oldest first *)
  grants : grant Queue.t array;  (* per-subflow FIFO of outstanding grants *)
  mutable reinjections : int;
}

let lia_increase t k () =
  (* alpha = cwnd_total * max_r(w_r / rtt_r^2) / (sum_r w_r / rtt_r)^2 ;
     per-packet-acked increase for subflow k is min(alpha / w_total, 1 / w_k) *)
  let n = Array.length t.senders in
  let rtt_of s =
    Float.max (Sim_time.span_to_sec (Tcp.srtt s ~default:(Sim_time.us 100))) 1e-6
  in
  let w_total = ref 0.0 and best = ref 0.0 and denom = ref 0.0 in
  for i = 0 to n - 1 do
    let w = Tcp.cwnd_pkts t.senders.(i) and r = rtt_of t.senders.(i) in
    w_total := !w_total +. w;
    best := Float.max !best (w /. (r *. r));
    denom := !denom +. (w /. r)
  done;
  if !denom <= 0.0 || !w_total <= 0.0 then 0.0
  else begin
    let alpha = !w_total *. !best /. (!denom *. !denom) in
    let wk = Float.max (Tcp.cwnd_pkts t.senders.(k)) 1e-9 in
    Float.min (alpha /. !w_total) (1.0 /. wk)
  end

let chunk_bytes = 4 * Tcp.mss (* the granule a subflow pulls *)

(* jobs of at most this many bytes ride one subflow instead of striping *)
let stripe_threshold = 64 * 1024

let oldest_incomplete t =
  let rec go = function
    | [] -> None
    | job :: rest -> if job.to_grant > 0 then Some job else go rest
  in
  go t.jobs

let gc_jobs t =
  t.jobs <- List.filter (fun j -> not j.completed) t.jobs

let window_avail t k =
  let s = t.senders.(k) in
  int_of_float (Tcp.cwnd_pkts s *. float_of_int Tcp.mss) - Tcp.flight_bytes s

(* unmeasured subflows look attractive, like a fresh path *)
let srtt t k = Tcp.srtt t.senders.(k) ~default:Sim_time.zero_span

let best_subflow t =
  (* minRTT scheduling, as in the Linux MPTCP default scheduler: the
     lowest-RTT subflow with window space *)
  let n = Array.length t.senders in
  let best = ref None in
  for k = 0 to n - 1 do
    if window_avail t k >= Tcp.mss then
      match !best with
      | None -> best := Some k
      | Some b ->
        if Sim_time.compare_span (srtt t k) (srtt t b) < 0 then best := Some k
  done;
  !best

let pull t k () =
  (* hand the subflow a chunk of the oldest incompletely-granted job, but
     never more than its currently open window: a congested subflow (small
     cwnd) must not hoard bytes that a healthy subflow could carry — this
     window-driven rebalancing is what makes MPTCP's average FCT good.
     Jobs below the stripe threshold are pinned to a single subflow
     (minRTT scheduling): striping a mouse over all paths would make its
     completion the maximum of four path latencies. *)
  match oldest_incomplete t with
  | None -> 0
  | Some job ->
    (if job.size <= stripe_threshold && job.pinned = None then begin
       let j = match best_subflow t with Some b -> b | None -> k in
       job.pinned <- Some j;
       (* the chosen subflow may be idle (no pending ACKs to wake it), so
          kick it now; re-entrancy is safe, it is a different sender *)
       if j <> k then Tcp.try_send t.senders.(j)
     end);
    (match job.pinned with
    | Some j when j <> k -> 0
    | _ ->
      let avail = window_avail t k in
      let window_cap =
        if avail <= Tcp.mss then Tcp.mss else avail - (avail mod Tcp.mss)
      in
      let grant = min (min chunk_bytes window_cap) job.to_grant in
      if grant <= 0 then 0
      else begin
        job.to_grant <- job.to_grant - grant;
        Queue.add { g_bytes = grant; g_orphaned = false; g_job = job } t.grants.(k);
        grant
      end)

let maybe_complete job =
  if (not job.completed) && job.outstanding <= 0 && job.to_grant = 0 then begin
    job.completed <- true;
    job.on_complete ()
  end

let on_acked t k bytes =
  (* attribute newly acked bytes to this subflow's grants in FIFO order;
     orphaned grants were reinjected elsewhere and no longer count *)
  let remaining = ref bytes in
  while !remaining > 0 && not (Queue.is_empty t.grants.(k)) do
    let g = Queue.peek t.grants.(k) in
    let consumed = min g.g_bytes !remaining in
    remaining := !remaining - consumed;
    g.g_bytes <- g.g_bytes - consumed;
    if not g.g_orphaned then begin
      g.g_job.outstanding <- g.g_job.outstanding - consumed;
      maybe_complete g.g_job
    end;
    if g.g_bytes = 0 then
      let (_ : grant) = Queue.pop t.grants.(k) in
      ()
  done;
  gc_jobs t

let reinject t k =
  (* the subflow just hit a retransmission timeout: opportunistically hand
     its unacknowledged grants back to the connection so healthy subflows
     can carry them (MPTCP's opportunistic retransmission).  The stalled
     copies become orphans: their eventual delivery no longer gates job
     completion. *)
  (* only the head-of-line grant is reinjected: the stalled subflow still
     retransmits its whole window itself (go-back-N), so duplicating more
     would amplify the congestion that caused the timeout *)
  let reinjected =
    Queue.fold
      (fun done_ g ->
        if done_ then true
        else if (not g.g_orphaned) && g.g_bytes > 0 && not g.g_job.completed then begin
          g.g_orphaned <- true;
          g.g_job.to_grant <- g.g_job.to_grant + g.g_bytes;
          (* a pinned job whose subflow timed out may escape to others *)
          g.g_job.pinned <- None;
          t.reinjections <- t.reinjections + 1;
          true
        end
        else false)
      false t.grants.(k)
  in
  if reinjected then
    Array.iteri (fun i s -> if i <> k then Tcp.try_send s) t.senders

let create ~sched ~dctcp ~conn_id ~subflows ~src ~dst ~base_port ~dst_port ~tx_src
    ~tx_dst ~src_stack ~dst_stack () =
  if subflows < 1 then invalid_arg "Mptcp.create: need at least one subflow";
  let t =
    {
      senders = [||];
      jobs = [];
      grants = Array.init subflows (fun _ -> Queue.create ());
      reinjections = 0;
    }
  in
  t.senders <-
    Array.init subflows (fun k ->
        let coupling =
          {
            Tcp.pull = pull t k;
            ca_increase = lia_increase t k;
            on_acked = on_acked t k;
            on_timeout = (fun () -> reinject t k);
          }
        in
        Tcp.create_sender ~sched ~dctcp ~coupling ~conn_id ~subflow:k ~src ~dst
          ~src_port:(base_port + k) ~dst_port ~tx:tx_src ());
  Array.iteri
    (fun k s ->
      Stack.register_sender src_stack s;
      let r =
        Tcp.create_receiver ~conn_id ~subflow:k ~addr:dst ~peer:src
          ~src_port:dst_port ~dst_port:(base_port + k) ~tx:tx_dst ()
      in
      Stack.register_receiver dst_stack r)
    t.senders;
  t

let send t ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Mptcp.send: bytes must be positive";
  t.jobs <-
    t.jobs
    @ [
        {
          size = bytes;
          to_grant = bytes;
          outstanding = bytes;
          completed = false;
          pinned = None;
          on_complete;
        };
      ];
  Array.iter Tcp.try_send t.senders

let reinjections t = t.reinjections
