type 'd entry = { mutable last_seen : Sim_time.t; mutable flowlet_id : int; mutable decision : 'd }

type 'd t = {
  sched : Scheduler.t;
  mutable gap : Sim_time.span;
  table : 'd entry Int_table.t;
  absent : 'd entry; (* the table's dummy; compared physically in [touch] *)
  mutable started : int;
  mutable peak : int; (* high-water mark of tracked flows, survives eviction *)
}

let create ~sched ~gap ~dummy =
  let absent = { last_seen = Sim_time.zero; flowlet_id = -1; decision = dummy } in
  { sched; gap; table = Int_table.create ~capacity:256 ~dummy:absent; absent;
    started = 0; peak = 0 }

let touch t ~key ~pick =
  let now = Scheduler.now t.sched in
  let e = Int_table.find_default t.table key t.absent in
  if e == t.absent then begin
    let decision = pick ~flowlet_id:0 in
    Int_table.set t.table key { last_seen = now; flowlet_id = 0; decision };
    t.started <- t.started + 1;
    let n = Int_table.length t.table in
    if n > t.peak then t.peak <- n;
    decision
  end
  else begin
    if Sim_time.(now >= add e.last_seen t.gap) then begin
      e.flowlet_id <- e.flowlet_id + 1;
      e.decision <- pick ~flowlet_id:e.flowlet_id;
      t.started <- t.started + 1
    end;
    e.last_seen <- now;
    e.decision
  end

let active_flowlet t ~key =
  let e = Int_table.find_default t.table key t.absent in
  if e == t.absent then None else Some e.decision

let flowlets_started t = t.started
let flows_tracked t = Int_table.length t.table
let peak_flows_tracked t = t.peak
let set_gap t gap = t.gap <- gap

let expire_older_than t age =
  let now = Scheduler.now t.sched in
  let stale =
    Int_table.fold
      (fun key e acc -> if Sim_time.(now >= add e.last_seen age) then key :: acc else acc)
      t.table []
  in
  List.iter (Int_table.remove t.table) stale
