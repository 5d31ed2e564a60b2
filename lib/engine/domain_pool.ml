(* Bounded work-stealing pool over OCaml 5 domains.

   A batch of independent tasks is published under the pool's mutex;
   every worker (and the submitting domain itself) then steals the next
   unclaimed task index from a shared atomic counter until the batch is
   drained.  Results land in a per-batch array slot keyed by task index,
   so the caller always observes them in submission order regardless of
   which domain finished first — the property the deterministic sweep
   engine builds on.

   Tasks must not share mutable simulator state; each experiment point
   owns its private scenario, schedulers (whose run mode carries the
   perturbation knobs and the auditor's switch) and RNG, which is what
   makes this sound.  clove-check's [sema-domain-parallel] rule keeps Domain/Mutex
   use fenced into this module. *)

type batch = {
  job : int -> unit; (* run task [i]; type-erased over the result array *)
  total : int;
  next : int Atomic.t; (* next unclaimed task index *)
  mutable completed : int; (* guarded by the pool mutex *)
  mutable failure : exn option; (* first task exception, re-raised at join *)
}

type t = {
  m : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable current : batch option;
  mutable generation : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

(* ---------------------------- sizing ------------------------------ *)

let default_domains () = Int.max 1 (Domain.recommended_domain_count () - 1)

(* --------------------------- the pool ----------------------------- *)

let drain t b =
  let rec steal () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.total then begin
      (try b.job i
       with e ->
         Mutex.lock t.m;
         if b.failure = None then b.failure <- Some e;
         Mutex.unlock t.m);
      Mutex.lock t.m;
      b.completed <- b.completed + 1;
      if b.completed = b.total then Condition.broadcast t.batch_done;
      Mutex.unlock t.m;
      steal ()
    end
  in
  steal ()

let worker t =
  let rec loop last_gen =
    Mutex.lock t.m;
    while
      (not t.stopping) && (t.generation = last_gen || t.current = None)
    do
      Condition.wait t.work_ready t.m
    done;
    if t.stopping then Mutex.unlock t.m
    else begin
      let gen = t.generation in
      let b = Option.get t.current in
      Mutex.unlock t.m;
      drain t b;
      loop gen
    end
  in
  loop 0

let create ?domains () =
  let n =
    match domains with Some n -> Int.max 1 n | None -> default_domains ()
  in
  let t =
    (* lint: allow alloc-record — pool construction allocates once per run, reused per window *)
    {
      m = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      workers = [||];
    }
  in
  (* lint: allow alloc-array, alloc-closure — worker spawn happens once per pool, not per task *)
  t.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if Array.length t.workers = 0 then Array.map f xs
  else begin
    let results = Array.make n None in
    let b =
      {
        job = (fun i -> results.(i) <- Some (f xs.(i)));
        total = n;
        next = Atomic.make 0;
        completed = 0;
        failure = None;
      }
    in
    Mutex.lock t.m;
    t.current <- Some b;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.m;
    (* the submitting domain steals work too *)
    drain t b;
    Mutex.lock t.m;
    while b.completed < b.total do
      Condition.wait t.batch_done t.m
    done;
    t.current <- None;
    Mutex.unlock t.m;
    (match b.failure with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let run ?domains f xs =
  let n =
    match domains with Some n -> Int.max 1 n | None -> default_domains ()
  in
  if n = 1 || Array.length xs <= 1 then Array.map f xs
  else begin
    let t = create ~domains:(Int.min n (Array.length xs)) () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map t f xs)
  end
