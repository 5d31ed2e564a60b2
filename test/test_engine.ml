(* Unit and property tests for the discrete-event engine. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------- Sim_time ------------------------- *)

let test_time_arithmetic () =
  let t = Sim_time.add Sim_time.zero (Sim_time.us 5) in
  check_int "5us in ns" 5_000 (Sim_time.to_ns t);
  let t2 = Sim_time.add t (Sim_time.ms 1) in
  check_int "diff" 1_000_000 (Sim_time.span_ns (Sim_time.diff t2 t));
  check_bool "ordering" true Sim_time.(t < t2);
  check_int "sub_span floors at zero" 0
    (Sim_time.span_ns (Sim_time.sub_span (Sim_time.ns 5) (Sim_time.ns 10)))

let test_time_negative_diff () =
  let t1 = Sim_time.of_ns 100 and t2 = Sim_time.of_ns 50 in
  Alcotest.check_raises "negative diff" (Invalid_argument "Sim_time.diff: negative")
    (fun () -> ignore (Sim_time.diff t2 t1))

let test_tx_time () =
  (* 1500 bytes at 10 Gbps = 1.2 us *)
  check_int "1500B@10G" 1_200 (Sim_time.span_ns (Sim_time.tx_time ~bytes_len:1500 ~rate_bps:10e9));
  Alcotest.check_raises "zero rate" (Invalid_argument "Sim_time.tx_time: rate must be positive")
    (fun () -> ignore (Sim_time.tx_time ~bytes_len:1 ~rate_bps:0.0))

let test_time_scaling () =
  let s = Sim_time.us 100 in
  check_int "x2.5" 250_000 (Sim_time.span_ns (Sim_time.mul_span s 2.5));
  check_int "sec conversion" 1_500_000_000 (Sim_time.span_ns (Sim_time.sec 1.5))

(* --------------------------------- Rng ---------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split_named a "c" in
  let d = Rng.split_named a "d" in
  (* differently named splits give different streams, and neither
     is the parent's *)
  let same = ref 0 and parent = ref 0 in
  for _ = 1 to 50 do
    let x = Rng.int c 1_000_000 in
    if x = Rng.int d 1_000_000 then incr same;
    if x = Rng.int a 1_000_000 then incr parent
  done;
  check_bool "streams differ" true (!same < 5);
  check_bool "split differs from its parent" true (!parent < 5)

let test_rng_split_named_stable () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let x = Rng.split_named a "workload" and y = Rng.split_named b "workload" in
  check_int "named split deterministic" (Rng.int x 9999) (Rng.int y 9999)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 2.0" true (abs_float (mean -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 100 (fun i -> i)) sorted

(* ---------------------------------- Ring -------------------------- *)

let ring_contents r = List.init (Ring.length r) (Ring.get r)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* push 0..2 and pop two, so the next pushes wrap around slot 0 *)
let ring_moved_head ~capacity =
  let r = Ring.create ~capacity ~dummy:(-1) () in
  List.iter (Ring.push r) [ 0; 1; 2 ];
  ignore (Ring.pop r);
  ignore (Ring.pop r);
  r

let test_ring_indexed_wrapped () =
  let r = ring_moved_head ~capacity:4 in
  List.iter (Ring.push r) [ 3; 4; 5 ];
  Alcotest.(check (list int)) "get across the wrap" [ 2; 3; 4; 5 ] (ring_contents r);
  Ring.set r 2 40;
  Alcotest.(check (list int)) "set in the wrapped part" [ 2; 3; 40; 5 ] (ring_contents r);
  check_bool "get past the tail" true (raises_invalid (fun () -> Ring.get r 4));
  check_bool "get before the head" true (raises_invalid (fun () -> Ring.get r (-1)));
  check_bool "set past the tail" true (raises_invalid (fun () -> Ring.set r 4 0));
  Ring.truncate r 5;
  check_int "truncate longer is a no-op" 4 (Ring.length r);
  Ring.truncate r 2;
  Alcotest.(check (list int)) "truncate keeps the oldest" [ 2; 3 ] (ring_contents r);
  check_bool "negative truncate" true (raises_invalid (fun () -> Ring.truncate r (-1)));
  Ring.push r 6;
  Alcotest.(check (list int)) "push after truncate" [ 2; 3; 6 ] (ring_contents r);
  check_int "pop" 2 (Ring.pop r);
  Ring.truncate r 0;
  check_int "empty" 0 (Ring.length r);
  check_bool "pop empty" true (raises_invalid (fun () -> Ring.pop r))

let test_ring_indexed_grown () =
  (* wrapped when full, so growth re-lays the wrapped part out: 4 slots
     double to 8, then 16, ...; past 128 slots the ring grows by half *)
  let r = ring_moved_head ~capacity:4 in
  for i = 3 to 302 do
    Ring.push r i
  done;
  Alcotest.(check (list int)) "get after growth" (List.init 301 (fun i -> i + 2)) (ring_contents r);
  Ring.set r 0 (-2);
  Ring.set r 300 (-302);
  check_int "set the oldest" (-2) (Ring.get r 0);
  check_int "set the newest" (-302) (Ring.get r 300);
  Ring.truncate r 3;
  Alcotest.(check (list int)) "truncate after growth" [ -2; 3; 4 ] (ring_contents r);
  Ring.push r 7;
  Alcotest.(check (list int)) "pop order" [ -2; 3; 4; 7 ]
    (List.init 4 (fun _ -> Ring.pop r))

(* a random script of ring operations against a list, oldest first *)
let prop_ring_matches_list =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun v -> `Push v) small_nat);
          (2, return `Pop);
          (2, map2 (fun i v -> `Set (i, v)) small_nat small_nat);
          (1, map (fun n -> `Truncate n) small_nat);
        ])
  in
  QCheck.Test.make ~name:"ring matches a list" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 200) op)))
    (fun (capacity, ops) ->
      let r = Ring.create ~capacity ~dummy:(-1) () in
      let step model = function
        | `Push v ->
          Ring.push r v;
          model @ [ v ]
        | `Pop -> (
          match model with
          | [] -> model
          | x :: rest ->
            if Ring.pop r <> x then QCheck.Test.fail_report "pop";
            rest)
        | `Set (i, v) ->
          if model = [] then model
          else begin
            let i = i mod List.length model in
            Ring.set r i v;
            List.mapi (fun j x -> if j = i then v else x) model
          end
        | `Truncate n ->
          Ring.truncate r n;
          List.filteri (fun j _ -> j < n) model
      in
      let model = List.fold_left step [] ops in
      ring_contents r = model)

(* ------------------------------ Event_queue ----------------------- *)

let test_eq_ordering () =
  let q = Event_queue.create ~dummy:"?" () in
  Event_queue.add q ~time:(Sim_time.of_ns 30) "c";
  Event_queue.add q ~time:(Sim_time.of_ns 10) "a";
  Event_queue.add q ~time:(Sim_time.of_ns 20) "b";
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "a first" "a" (pop ());
  Alcotest.(check string) "b second" "b" (pop ());
  Alcotest.(check string) "c third" "c" (pop ());
  check_bool "empty" true (Option.is_none (Event_queue.pop q))

let test_eq_fifo_same_time () =
  let q = Event_queue.create ~dummy:(-1) () in
  for i = 0 to 9 do
    Event_queue.add q ~time:(Sim_time.of_ns 5) i
  done;
  for i = 0 to 9 do
    match Event_queue.pop q with
    | Some (_, v) -> check_int "insertion order" i v
    | None -> Alcotest.fail "queue empty early"
  done

(* every entry, in pop order *)
let drain_all q =
  let rec go acc =
    match Event_queue.pop q with
    | Some (t, v) -> go ((Sim_time.to_ns t, v) :: acc)
    | None -> List.rev acc
  in
  go []

(* a queue under the scheduler's keys: time, born, src and seq *)
let add_key q ~time_ns ~seq v = Event_queue.add_at_ns q ~time_ns ~born_ns:0 ~src:0 ~seq v

let test_eq_grows () =
  let q = Event_queue.create ~capacity:2 ~dummy:(-1) () in
  for i = 999 downto 0 do
    add_key q ~time_ns:i ~seq:(999 - i) i
  done;
  let popped = List.map snd (drain_all q) in
  check_int "size" 1000 (List.length popped);
  check_int "earliest" 0 (List.hd popped)

let test_eq_lifo_tiebreak () =
  (* the perturbation check builds queues with the same-timestamp
     tie-break reversed; a queue must honor it from its creation *)
  let q = Event_queue.create ~tiebreak:Event_queue.Lifo ~dummy:(-1) () in
  for i = 0 to 9 do
    add_key q ~time_ns:5 ~seq:i i
  done;
  for i = 9 downto 0 do
    match Event_queue.pop q with
    | Some (_, v) -> check_int "reverse insertion order" i v
    | None -> Alcotest.fail "queue empty early"
  done

(* reference model: a stable sort of (time, insertion index) pairs *)
let prop_eq_sorted =
  QCheck.Test.make ~name:"event_queue pops in non-decreasing time order" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let q = Event_queue.create ~dummy:(-1) () in
      List.iter (fun t -> Event_queue.add q ~time:(Sim_time.of_ns t) t) times;
      let popped = List.map snd (drain_all q) in
      (* popping in key order of a stable heap = stable sort of the input *)
      popped = List.stable_sort compare times)

let prop_eq_matches_reference =
  (* interleaves adds and pops and checks the exact pop sequence against a
     sorted-list reference model, under both tie-break modes *)
  QCheck.Test.make ~name:"event_queue matches sorted-reference model" ~count:200
    QCheck.(pair bool (small_list (pair (int_bound 50) bool)))
    (fun (fifo, ops) ->
      let tiebreak = if fifo then Event_queue.Fifo else Event_queue.Lifo in
      let q = Event_queue.create ~capacity:1 ~tiebreak ~dummy:(-1) () in
      let model = ref [] in
      (* reference order: time asc, then seq asc (FIFO) / desc (LIFO) *)
      let earlier (t1, s1) (t2, s2) =
        if t1 <> t2 then t1 < t2 else if fifo then s1 < s2 else s1 > s2
      in
      let ok = ref true in
      let seq = ref 0 in
      List.iter
        (fun (time, is_add) ->
          if is_add || !model = [] then begin
            Event_queue.add q ~time:(Sim_time.of_ns time) !seq;
            model := (time, !seq) :: !model;
            incr seq
          end
          else begin
            let best =
              List.fold_left
                (fun acc e -> if earlier e acc then e else acc)
                (List.hd !model) (List.tl !model)
            in
            model := List.filter (fun e -> e <> best) !model;
            match Event_queue.pop q with
            | Some (t, v) ->
              if (Sim_time.to_ns t, v) <> best then ok := false
            | None -> ok := false
          end)
        ops;
      (* drain the remainder and compare tails *)
      let rest = drain_all q in
      let expected = List.sort (fun a b ->
          if earlier a b then -1 else if earlier b a then 1 else 0)
          !model
      in
      !ok && rest = expected)

(* ------------------------------- Scheduler ------------------------ *)

let test_sched_order_and_clock () =
  let s = Scheduler.create () in
  let log = ref [] in
  Scheduler.schedule s ~after:(Sim_time.us 2) (fun () -> log := 2 :: !log);
  Scheduler.schedule s ~after:(Sim_time.us 1) (fun () -> log := 1 :: !log);
  Scheduler.schedule s ~after:(Sim_time.us 3) (fun () -> log := 3 :: !log);
  Scheduler.run s;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 3_000 (Sim_time.to_ns (Scheduler.now s))

let test_timer_disarm () =
  let s = Scheduler.create () in
  let fired = ref false in
  let tm = Scheduler.timer s ~arg:0 (fun _ -> fired := true) in
  Scheduler.arm s tm ~after:(Sim_time.us 1);
  Scheduler.disarm s tm;
  check_bool "disarmed" false (Scheduler.armed s tm);
  Scheduler.run s;
  check_bool "handler never ran" false !fired;
  check_int "its event fired as a no-op" 1 (Scheduler.events_fired s)

(* a timer without a fixed rank ranks under the component dispatching
   when it is armed, and its handler dispatches under that rank *)
let test_timer_rank () =
  let s = Scheduler.create () in
  let log = ref [] in
  let note c = log := c :: !log in
  let tm =
    Scheduler.timer s ~arg:0 (fun _ ->
        note 'T';
        (* ranks under the timer's 50, ahead of the 60 born at 15 *)
        Scheduler.schedule s ~after:Sim_time.zero_span (fun () -> note 'c'))
  in
  let kind src f =
    let k = Scheduler.register_kind s f in
    Scheduler.set_kind_src s ~kind:k ~src;
    k
  in
  let arming = kind 50 (fun _ -> Scheduler.arm s tm ~after:(Sim_time.ns 10)) in
  let k40 = kind 40 (fun _ -> note '4') and k60 = kind 60 (fun _ -> note '6') in
  Scheduler.inject_tag s ~time_ns:5 ~born_ns:5 ~kind:arming ~arg:0;
  Scheduler.inject_tag s ~time_ns:15 ~born_ns:5 ~kind:k60 ~arg:0;
  Scheduler.inject_tag s ~time_ns:15 ~born_ns:5 ~kind:k40 ~arg:0;
  Scheduler.inject_tag s ~time_ns:15 ~born_ns:15 ~kind:k60 ~arg:0;
  Scheduler.run s;
  Alcotest.(check string)
    "(15,5,40) < timer (15,5,50) < (15,5,60) < its closure (15,15,50) < (15,15,60)"
    "4T6c6"
    (String.of_seq (List.to_seq (List.rev !log)))

let test_sched_nested_schedule () =
  let s = Scheduler.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Scheduler.schedule s ~after:(Sim_time.ns 10) (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 100;
  Scheduler.run s;
  check_int "chain fired" 100 !count;
  check_int "clock" 1_000 (Sim_time.to_ns (Scheduler.now s))

let test_sched_until () =
  let s = Scheduler.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Scheduler.schedule s ~after:(Sim_time.us i) (fun () -> incr fired)
  done;
  Scheduler.run ~until:(Sim_time.of_ns 5_000) s;
  check_int "only first 5" 5 !fired;
  check_int "clock clamped" 5_000 (Sim_time.to_ns (Scheduler.now s));
  Scheduler.run s;
  check_int "rest fired" 10 !fired

let test_sched_past_raises () =
  let s = Scheduler.create () in
  Scheduler.schedule s ~after:(Sim_time.us 5) (fun () -> ());
  Scheduler.run s;
  Alcotest.check_raises "past" (Invalid_argument "Scheduler.schedule_at: time in the past")
    (fun () -> Scheduler.schedule_at s ~time:Sim_time.zero (fun () -> ()))

let prop_scheduler_fires_all =
  QCheck.Test.make ~name:"scheduler fires every scheduled event" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 50) (int_bound 10_000))
    (fun delays ->
      let s = Scheduler.create () in
      let fired = ref 0 in
      List.iter
        (fun d -> Scheduler.schedule s ~after:(Sim_time.ns d) (fun () -> incr fired))
        delays;
      Scheduler.run s;
      !fired = List.length delays)

(* -------------- timer wheel vs pure-heap equivalence -------------- *)

(* Schedule the workload through [schedule d f] (run [f] in [d] ns) and
   return the firing log, as indices into the delay list (nested
   re-arms offset by 10_000).  [scale] spreads delays across the
   wheel's levels and past its ~1.07 s horizon, where events are parked
   until the frontier nears them; handlers of the shortest timers re-arm
   far-future events to exercise insertion against an advanced
   frontier. *)
let wheel_workload ~schedule delays =
  let log = ref [] in
  List.iteri
    (fun i (v, scale) ->
      let d = v * int_of_float (10. ** float_of_int scale) in
      schedule d (fun () ->
          log := i :: !log;
          if scale = 0 then
            schedule (v * 100_000) (fun () -> log := (i + 10_000) :: !log)))
    delays;
  log

let wheel_run_order ~tiebreak delays =
  let s = Scheduler.create ~mode:{ Run_mode.default with Run_mode.tiebreak } () in
  let log =
    wheel_workload delays ~schedule:(fun d f ->
        Scheduler.schedule s ~after:(Sim_time.ns d) f)
  in
  Scheduler.run s;
  List.rev !log

(* Reference: the same schedule driven through one bare binary heap,
   each event born at the loop's clock under component 0 (the
   scheduler's rank for closures scheduled at setup or by closures). *)
let heap_run_order ~tiebreak delays =
  let q = Event_queue.create ~tiebreak ~dummy:(fun () -> ()) () in
  let clock = ref 0 and seq = ref 0 in
  let log =
    wheel_workload delays ~schedule:(fun d f ->
        Event_queue.add_at_ns q ~time_ns:(!clock + d) ~born_ns:!clock ~src:0
          ~seq:!seq f;
        incr seq)
  in
  let rec drain () =
    match Event_queue.pop q with
    | Some (time, f) ->
      clock := Sim_time.to_ns time;
      f ();
      drain ()
    | None -> ()
  in
  drain ();
  List.rev !log

let prop_wheel_matches_heap =
  QCheck.Test.make
    ~name:"wheel+overflow pop order identical to pure heap (both tie-breaks)"
    ~count:200
    QCheck.(pair bool (small_list (pair (int_bound 2_000) (int_bound 6))))
    (fun (fifo, delays) ->
      let tiebreak = if fifo then Event_queue.Fifo else Event_queue.Lifo in
      wheel_run_order ~tiebreak delays = heap_run_order ~tiebreak delays)

(* TCP-RTO shaped churn, 100k re-arms each way.  To a later deadline
   (a tick every 10 us pushes a 200 ms RTO out) a re-arm queues
   nothing: the timer's one queued event re-queues itself at the
   deadline when it fires early, so the queue holds the tick and that
   event.  To an earlier deadline each re-arm queues an event and
   strands the previous one, which later fires as a no-op.  Either way
   the handler runs once, at the last deadline. *)
let test_timer_churn () =
  let s = Scheduler.create () in
  let fired = ref [] in
  let tm =
    Scheduler.timer s ~arg:7 (fun a ->
        fired := (a, Sim_time.to_ns (Scheduler.now s)) :: !fired)
  in
  let max_pending = ref 0 and ticks = ref 0 in
  let rec tick n () =
    incr ticks;
    if n > 0 then begin
      Scheduler.arm s tm ~after:(Sim_time.ms 200);
      Scheduler.schedule s ~after:(Sim_time.us 10) (tick (n - 1));
      max_pending := max !max_pending (Scheduler.pending_events s)
    end
  in
  tick 100_000 ();
  Scheduler.run s;
  check_int "every tick ran" 100_001 !ticks;
  check_bool "later re-arms: at most the tick and the timer's event" true
    (!max_pending <= 2);
  (* the last arm ran at tick 99,999, 999,990 us in *)
  Alcotest.(check (list (pair int int)))
    "later re-arms: fired once, at the last deadline" [ (7, 1_199_990_000) ] !fired;
  fired := [];
  let start = Sim_time.to_ns (Scheduler.now s) and before = Scheduler.events_fired s in
  for i = 0 to 99_999 do
    Scheduler.arm s tm ~after:(Sim_time.ns (200_000 - i))
  done;
  check_int "earlier re-arms: one event each" 100_000 (Scheduler.pending_events s);
  Scheduler.run s;
  Alcotest.(check (list (pair int int)))
    "earlier re-arms: fired once, at the last deadline" [ (7, start + 100_001) ] !fired;
  check_int "the stranded events fired as no-ops" 100_000
    (Scheduler.events_fired s - before);
  check_int "nothing pending after run" 0 (Scheduler.pending_events s);
  check_bool "disarmed after firing" false (Scheduler.armed s tm)

(* ---------------------------- the wheel's run ------------------------ *)

(* A scheduler of [tiebreak] with kinds logging their arg's letter,
   ranked under 100, 200 and 300. *)
let run_fixture tiebreak =
  let s = Scheduler.create ~mode:{ Run_mode.default with Run_mode.tiebreak } () in
  let log = Buffer.create 16 in
  let note c = Buffer.add_char log c in
  let kind src f =
    let k = Scheduler.register_kind s f in
    Scheduler.set_kind_src s ~kind:k ~src;
    k
  in
  let letter a = note (Char.chr a) in
  let k100 = kind 100 letter and k200 = kind 200 letter in
  (s, log, note, kind, k100, k200)

(* The run holds one window's entries at 1000 ns; the first one's
   handler schedules, at its own instant, a zero-delay closure and two
   injected events born earlier.  Their window is loaded, so the wheel
   seats all three straight into the run, and each fires in key order
   among the run's remaining entries: the (1000, 20, 200) one
   between born 10 and born 30, the (1000, 50, 100) one after or
   before the run's two of that key by the tie-break, and the closure,
   born at 1000, last. *)
let test_run_seats tiebreak want () =
  let s, log, note, kind, k100, k200 = run_fixture tiebreak in
  let at born k c = Scheduler.inject_tag s ~time_ns:1000 ~born_ns:born ~kind:k ~arg:(Char.code c) in
  let first =
    kind 300 (fun _ ->
        note 'd';
        Scheduler.schedule s ~after:Sim_time.zero_span (fun () -> note 'z');
        at 20 k200 'e';
        at 50 k100 'g')
  in
  Scheduler.schedule_tag s ~after:(Sim_time.ns 1000) ~kind:first ~arg:0;
  at 10 k100 'a';
  at 30 k200 'b';
  at 50 k100 '1';
  at 50 k100 '2';
  at 1000 k100 'f';
  check_int "set-up: all staged in the wheel" 0 (Scheduler.heap_scheduled s);
  Scheduler.run s;
  check_int "the handler's three were seated" 3 (Scheduler.heap_scheduled s);
  Alcotest.(check string) "key order" want (Buffer.contents log)

(* An event 16,384 ns (one level-0 lap) ahead of a drained entry maps
   to the ring index of the window being drained: it is staged for the
   next lap and fires after that window and every window before it. *)
let test_run_next_lap tiebreak () =
  let s, log, note, kind, k100, _ = run_fixture tiebreak in
  let fired = ref [] in
  let stamp c =
    note c;
    fired := Sim_time.to_ns (Scheduler.now s) :: !fired
  in
  let lap = kind 300 (fun _ -> stamp 'y') in
  let first =
    kind 300 (fun _ ->
        stamp 'x';
        let wheel = Scheduler.wheel_scheduled s in
        Scheduler.schedule_tag s ~after:(Sim_time.ns 16_384) ~kind:lap ~arg:0;
        check_int "staged in the wheel" (wheel + 1) (Scheduler.wheel_scheduled s))
  in
  let late = kind 100 (fun _ -> stamp 'w') in
  Scheduler.schedule_tag s ~after:(Sim_time.ns 1000) ~kind:first ~arg:0;
  Scheduler.inject_tag s ~time_ns:1010 ~born_ns:0 ~kind:k100 ~arg:(Char.code 'a');
  Scheduler.schedule_tag s ~after:(Sim_time.ns 2000) ~kind:late ~arg:0;
  Scheduler.schedule_tag s ~after:(Sim_time.ns 17_383) ~kind:late ~arg:0;
  Scheduler.run s;
  Alcotest.(check string) "order" "xawwy" (Buffer.contents log);
  Alcotest.(check (list int)) "times" [ 1000; 2000; 17_383; 17_384 ] (List.rev !fired);
  check_int "everything staged" 0 (Scheduler.heap_scheduled s)

(* [pending_events] counts the run's entries not yet popped *)
let test_run_pending tiebreak () =
  let s, _, _, _, k100, _ = run_fixture tiebreak in
  for i = 0 to 2 do
    Scheduler.inject_tag s ~time_ns:500 ~born_ns:i ~kind:k100 ~arg:(Char.code 'a')
  done;
  Scheduler.inject_tag s ~time_ns:5_000_000_000 ~born_ns:0 ~kind:k100 ~arg:(Char.code 'b');
  check_int "one beyond the horizon" 1 (Scheduler.heap_scheduled s);
  let pending () = Scheduler.pending_events s in
  check_int "before" 4 (pending ());
  let steps =
    List.init 4 (fun _ ->
        let (_ : bool) = Scheduler.step s in
        pending ())
  in
  Alcotest.(check (list int)) "after each step" [ 3; 2; 1; 0 ] steps

(* The handler of the run's second entry (born 20) seats two events at
   its own instant: one born 40, between the unpopped born-30 and
   born-50 entries, and one born 5, whose key precedes every entry
   popped so far: it lands at the head, never before it, and fires
   next. *)
let test_run_seat_after_head tiebreak () =
  let s, log, note, kind, k100, k200 = run_fixture tiebreak in
  let at born k c = Scheduler.inject_tag s ~time_ns:1000 ~born_ns:born ~kind:k ~arg:(Char.code c) in
  let h =
    kind 300 (fun _ ->
        note 'h';
        at 40 k200 'x';
        at 5 k100 'y')
  in
  at 10 k100 'a';
  Scheduler.inject_tag s ~time_ns:1000 ~born_ns:20 ~kind:h ~arg:0;
  at 30 k200 'b';
  at 50 k100 'c';
  Scheduler.run s;
  Alcotest.(check string) "key order" "ahybxc" (Buffer.contents log);
  check_int "both seated" 2 (Scheduler.heap_scheduled s)

(* Twenty events seated in reverse key order, while four popped entries
   sit in front of the run's head, grow the run past its 16 initial
   entries; each walks back past the ones seated before it. *)
let test_run_grows_past_popped tiebreak () =
  let s, log, note, kind, k100, _ = run_fixture tiebreak in
  let at born k c = Scheduler.inject_tag s ~time_ns:1000 ~born_ns:born ~kind:k ~arg:(Char.code c) in
  let h =
    kind 300 (fun _ ->
        note 'h';
        for i = 0 to 19 do
          at (99 - i) k100 (Char.chr (Char.code 'A' + i))
        done)
  in
  at 0 k100 'a';
  at 2 k100 'b';
  at 4 k100 'c';
  Scheduler.inject_tag s ~time_ns:1000 ~born_ns:6 ~kind:h ~arg:0;
  at 100 k100 'z';
  Scheduler.run s;
  Alcotest.(check string) "key order" "abchTSRQPONMLKJIHGFEDCBAz" (Buffer.contents log);
  check_int "nothing pending" 0 (Scheduler.pending_events s)

(* One event 5 s ahead, past the horizon, then a chain of 1,000 events
   1 us apart: the far event is parked in the wheel, every link of the
   chain is staged in a window and fires in order before it, and only
   the far event is not staged. *)
let test_run_far_event tiebreak () =
  let s, _, _, kind, _, _ = run_fixture tiebreak in
  let fired = ref [] in
  let far = kind 100 (fun _ -> fired := -1 :: !fired) in
  let link = ref 0 in
  link :=
    kind 200 (fun n ->
        fired := n :: !fired;
        if n < 999 then Scheduler.schedule_tag s ~after:(Sim_time.us 1) ~kind:!link ~arg:(n + 1));
  Scheduler.schedule_tag s ~after:(Sim_time.sec 5.0) ~kind:far ~arg:0;
  Scheduler.schedule_tag s ~after:(Sim_time.us 1) ~kind:!link ~arg:0;
  Scheduler.run s;
  Alcotest.(check (list int)) "the chain, then the far event"
    (List.init 1000 Fun.id @ [ -1 ])
    (List.rev !fired);
  check_int "the far event fired at 5 s" 5_000_000_000 (Sim_time.to_ns (Scheduler.now s));
  check_int "only the far event not staged" 1 (Scheduler.heap_scheduled s)

let test_sched_tag_range () =
  let s = Scheduler.create () in
  let k = Scheduler.register_kind s (fun _ -> ()) in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let after = Sim_time.ns 1 in
  raises "unregistered kind" (fun () ->
      Scheduler.schedule_tag s ~after ~kind:(k + 1) ~arg:0);
  raises "negative kind" (fun () -> Scheduler.schedule_tag s ~after ~kind:(-1) ~arg:0);
  raises "negative arg" (fun () -> Scheduler.schedule_tag s ~after ~kind:k ~arg:(-1));
  raises "arg too wide" (fun () -> Scheduler.schedule_tag s ~after ~kind:k ~arg:max_int);
  raises "inject: unregistered kind" (fun () ->
      Scheduler.inject_tag s ~time_ns:1 ~born_ns:0 ~kind:(k + 1) ~arg:0);
  raises "inject: negative arg" (fun () ->
      Scheduler.inject_tag s ~time_ns:1 ~born_ns:0 ~kind:k ~arg:(-1));
  check_int "nothing scheduled" 0 (Scheduler.pending_events s)

(* Model test of the whole event path: tagged, injected and closure
   events and armed timers, scheduled at random times — ties included,
   and times past the wheel's horizon — fire in the order of a
   reference sort on (time, born, src, seq), under both tie-breaks.  A
   timer fires once, with the key of its last arming, unless disarmed
   after it; re-arms to earlier deadlines strand events that must fire
   as no-ops.  Two rounds run back to back, so the second reuses slab
   slots the first freed and re-arms timers that already fired.  Each
   round schedules from the handler of a tagged event ranked under 0,
   so its closures rank under 0 whatever dispatched last. *)
type model_op =
  | Tag of int * int (* kind index, delay *)
  | Inject of int * int * int (* kind index, delay, born offset back *)
  | Closure of int (* delay *)
  | Arm of int * int (* timer index, delay *)
  | Disarm of int (* timer index *)

let model_op_gen =
  let open QCheck.Gen in
  (* mostly small delays, for ties; some spread over the wheel levels
     and beyond its ~1.07 s horizon *)
  let delay =
    frequency
      [
        (4, int_bound 20);
        ( 1,
          map
            (fun (v, e) -> v * int_of_float (10. ** float_of_int e))
            (pair (int_bound 9) (int_range 2 10)) );
      ]
  in
  frequency
    [
      (3, map2 (fun k d -> Tag (k, d)) (int_bound 2) delay);
      (2, map3 (fun k d b -> Inject (k, d, b)) (int_bound 2) delay (int_bound 30));
      (2, map (fun d -> Closure d) delay);
      (3, map2 (fun j d -> Arm (j, d)) (int_bound 2) delay);
      (1, map (fun j -> Disarm j) (int_bound 2));
    ]

let prop_sched_matches_model =
  QCheck.Test.make ~name:"scheduler dispatch order matches (time, born, src, seq) model"
    ~count:300
    QCheck.(
      triple bool
        (make Gen.(list_size (int_bound 40) model_op_gen))
        (make Gen.(list_size (int_bound 40) model_op_gen)))
    (fun (fifo, round1, round2) ->
      let tiebreak = if fifo then Event_queue.Fifo else Event_queue.Lifo in
      let s = Scheduler.create ~mode:{ Run_mode.default with Run_mode.tiebreak } () in
      let log = ref [] in
      let kinds =
        Array.init 3 (fun i ->
            let k = Scheduler.register_kind s (fun id -> log := id :: !log) in
            (* tagged events rank under 100, 200, 300; closures under 0 *)
            Scheduler.set_kind_src s ~kind:k ~src:(100 * (i + 1));
            k)
      in
      (* timers rank under 150, 250, 350 and log -1, -2, -3 *)
      let timers =
        Array.init 3 (fun j ->
            Scheduler.timer s ~src:((100 * (j + 1)) + 50) ~arg:(-(j + 1)) (fun id ->
                log := id :: !log))
      in
      let seq = ref 0 and next_id = ref 0 in
      let expected = ref [] and ops = ref [] in
      let schedule_round (_ : int) =
        let now = Sim_time.to_ns (Scheduler.now s) in
        let armed = Array.make 3 None in
        List.iter
          (fun op ->
            let id = !next_id in
            let key time born src = (time, born, src, !seq, id) in
            (match op with
            | Tag (k, d) ->
              Scheduler.schedule_tag s ~after:(Sim_time.ns d) ~kind:kinds.(k) ~arg:id;
              expected := key (now + d) now (100 * (k + 1)) :: !expected
            | Inject (k, d, b) ->
              let born = max 0 (now + d - b) in
              Scheduler.inject_tag s ~time_ns:(now + d) ~born_ns:born ~kind:kinds.(k)
                ~arg:id;
              expected := key (now + d) born (100 * (k + 1)) :: !expected
            | Closure d ->
              Scheduler.schedule s ~after:(Sim_time.ns d) (fun () -> log := id :: !log);
              expected := key (now + d) now 0 :: !expected
            | Arm (j, d) ->
              Scheduler.arm s timers.(j) ~after:(Sim_time.ns d);
              armed.(j) <- Some (now + d, now, (100 * (j + 1)) + 50, !seq, -(j + 1))
            | Disarm j ->
              Scheduler.disarm s timers.(j);
              armed.(j) <- None);
            incr seq;
            incr next_id)
          !ops;
        Array.iter (Option.iter (fun e -> expected := e :: !expected)) armed
      in
      let setup = Scheduler.register_kind s schedule_round in
      Scheduler.set_kind_src s ~kind:setup ~src:0;
      let round round_ops =
        ops := round_ops;
        expected := [];
        Scheduler.schedule_tag s ~after:Sim_time.zero_span ~kind:setup ~arg:0;
        let (_ : bool) = Scheduler.step s in
        let before (t1, b1, c1, s1, _) (t2, b2, c2, s2, _) =
          compare (t1, b1, c1, if fifo then s1 else -s1)
            (t2, b2, c2, if fifo then s2 else -s2)
        in
        let want =
          List.map (fun (_, _, _, _, id) -> id) (List.sort before !expected)
        in
        log := [];
        Scheduler.run s;
        List.rev !log = want
        && Array.for_all (fun tm -> not (Scheduler.armed s tm)) timers
      in
      let ok1 = round round1 in
      let ok2 = round round2 in
      ok1 && ok2 && Scheduler.pending_events s = 0)

(* ------------------------------ Int_table ------------------------- *)

let prop_int_table_model =
  (* interleaved set/remove against a stdlib Hashtbl reference; sorted
     traversal must agree exactly, including after backward-shift
     deletions, and lookups must agree on present and absent keys *)
  QCheck.Test.make ~name:"int_table matches reference map" ~count:300
    QCheck.(small_list (triple (int_range (-20) 20) bool small_nat))
    (fun ops ->
      let t = Int_table.create ~capacity:2 ~dummy:(-1) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, is_add, v) ->
          if is_add then begin
            Int_table.set t k v;
            Hashtbl.replace model k v
          end
          else begin
            Int_table.remove t k;
            Hashtbl.remove model k
          end)
        ops;
      let model_keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) model []
        |> List.sort Int.compare
      in
      let sorted_bindings =
        let acc = ref [] in
        Int_table.iter_sorted (fun k v -> acc := (k, v) :: !acc) t;
        List.rev !acc
      in
      Int_table.length t = Hashtbl.length model
      && Int_table.sorted_keys t = model_keys
      && sorted_bindings = List.map (fun k -> (k, Hashtbl.find model k)) model_keys
      && List.for_all
           (fun k ->
             Int_table.mem t k = Hashtbl.mem model k
             && Int_table.find_opt t k = Hashtbl.find_opt model k
             && Int_table.find_default t k (-1)
                = (match Hashtbl.find_opt model k with Some v -> v | None -> -1))
           (List.init 43 (fun i -> i - 21)))

let test_int_table_unsorted_iter_deterministic () =
  (* raw iteration order is a pure function of the operation history:
     two tables fed the same ops traverse identically — this is what
     lets hot paths use [fold] when the effect is order-insensitive *)
  let build () =
    let t = Int_table.create ~capacity:4 ~dummy:(-1) in
    for i = 0 to 99 do
      Int_table.set t (i * 37) i
    done;
    for i = 0 to 49 do
      Int_table.remove t (i * 2 * 37)
    done;
    t
  in
  let trace t = Int_table.fold (fun k v acc -> (k, v) :: acc) t [] in
  let a = build () and b = build () in
  check_int "same length" (Int_table.length a) (Int_table.length b);
  check_bool "identical raw traversal" true (trace a = trace b);
  check_int "odd half survives" 50 (Int_table.length a)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "sim_time",
        [
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "negative diff raises" `Quick test_time_negative_diff;
          Alcotest.test_case "tx_time" `Quick test_tx_time;
          Alcotest.test_case "scaling" `Quick test_time_scaling;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "named split stable" `Quick test_rng_split_named_stable;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "ring",
        [
          Alcotest.test_case "indexed at wrap-around" `Quick test_ring_indexed_wrapped;
          Alcotest.test_case "indexed after growth" `Quick test_ring_indexed_grown;
          qc prop_ring_matches_list;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_eq_fifo_same_time;
          Alcotest.test_case "growth" `Quick test_eq_grows;
          Alcotest.test_case "lifo tie-break under perturb" `Quick test_eq_lifo_tiebreak;
          qc prop_eq_sorted;
          qc prop_eq_matches_reference;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "order and clock" `Quick test_sched_order_and_clock;
          Alcotest.test_case "timer disarm" `Quick test_timer_disarm;
          Alcotest.test_case "timer rank" `Quick test_timer_rank;
          Alcotest.test_case "nested scheduling" `Quick test_sched_nested_schedule;
          Alcotest.test_case "run until" `Quick test_sched_until;
          Alcotest.test_case "past raises" `Quick test_sched_past_raises;
          qc prop_scheduler_fires_all;
          Alcotest.test_case "timer churn keeps the queue bounded" `Quick
            test_timer_churn;
          qc prop_wheel_matches_heap;
          Alcotest.test_case "out-of-range kind or arg raises" `Quick test_sched_tag_range;
          qc prop_sched_matches_model;
        ] );
      ( "wheel run",
        List.concat_map
          (fun (name, tiebreak, want) ->
            [
              (* the name predates the one store: the events are seated into the run *)
              Alcotest.test_case ("handler's events merge from the heap, " ^ name) `Quick
                (test_run_seats tiebreak want);
              Alcotest.test_case ("a seated event lands at or after the head, " ^ name) `Quick
                (test_run_seat_after_head tiebreak);
              Alcotest.test_case ("the run grows past popped entries, " ^ name) `Quick
                (test_run_grows_past_popped tiebreak);
              Alcotest.test_case ("a far event waits for a chain, " ^ name) `Quick
                (test_run_far_event tiebreak);
              Alcotest.test_case ("next lap fires after the window, " ^ name) `Quick
                (test_run_next_lap tiebreak);
              Alcotest.test_case ("pending counts the run, " ^ name) `Quick
                (test_run_pending tiebreak);
            ])
          [ ("fifo", Event_queue.Fifo, "daeb12gfz"); ("lifo", Event_queue.Lifo, "daebg21fz") ] );
      ( "int_table",
        [
          qc prop_int_table_model;
          Alcotest.test_case "unsorted iteration is deterministic" `Quick
            test_int_table_unsorted_iter_deterministic;
        ] );
    ]
