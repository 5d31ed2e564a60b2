type result = { goodput_bps : float; requests : int; elapsed : Sim_time.span }

let run ~sched ~rng ~server_submits ~fanout ~total_bytes ~requests ~start_at =
  let n = Array.length server_submits in
  if fanout < 1 || fanout > n then invalid_arg "Incast.run: bad fanout";
  if requests < 1 then invalid_arg "Incast.run: bad request count";
  let per_server = max 1 (total_bytes / fanout) in
  let t_begin = ref Sim_time.zero in
  let t_end = ref Sim_time.zero in
  let done_all = ref false in
  let rec request k =
    if k >= requests then begin
      t_end := Scheduler.now sched;
      done_all := true
    end
    else begin
      (* choose [fanout] distinct servers uniformly *)
      let ids = Array.init n (fun i -> i) in
      Rng.shuffle rng ids;
      let outstanding = ref fanout in
      for j = 0 to fanout - 1 do
        server_submits.(ids.(j)) ~bytes:per_server ~on_complete:(fun () ->
            decr outstanding;
            if !outstanding = 0 then request (k + 1))
      done
    end
  in
  Scheduler.schedule sched ~after:start_at (fun () ->
      t_begin := Scheduler.now sched;
      request 0);
  while (not !done_all) && Scheduler.step sched do
    ()
  done;
  if not !done_all then failwith "Incast.run: simulation stalled";
  let elapsed = Sim_time.diff !t_end !t_begin in
  let bits = float_of_int (requests * fanout * per_server) *. 8.0 in
  {
    goodput_bps = bits /. Float.max (Sim_time.span_to_sec elapsed) 1e-12;
    requests;
    elapsed;
  }
