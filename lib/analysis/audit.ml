(* lint: allow-file race-shared-mut — audit state is serial by construction — mutations are gated on [!on] and every domain-parallel entry falls back to Array.map when the audit is enabled (sweep.ml, chaos.ml) *)

type violation = { invariant : string; detail : string }

let on = ref false
let set_enabled v = on := v

(* keep the first [max_kept] violations verbatim; count all of them *)
let max_kept = 100
let viols : violation list ref = ref []
let n_viols = ref 0

let record_violation ~invariant ~detail =
  incr n_viols;
  if !n_viols <= max_kept then viols := { invariant; detail } :: !viols

let violation_count () = !n_viols
let ok () = !n_viols = 0

(* ------------------------ packet conservation --------------------- *)

let n_injected = ref 0
let n_delivered = ref 0
let n_dropped = ref 0
let drops : (string, int ref) Hashtbl.t = Hashtbl.create 8

let note_injected () = if !on then incr n_injected
let note_delivered () = if !on then incr n_delivered

let note_dropped ~reason =
  if !on then begin
    incr n_dropped;
    match Hashtbl.find_opt drops reason with
    | Some r -> incr r
    | None -> Hashtbl.replace drops reason (ref 1)
  end

let injected () = !n_injected
let delivered () = !n_delivered

let drop_reasons () =
  Hashtbl.fold (fun reason r acc -> (reason, !r) :: acc) drops []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let check_packet_conservation ~in_flight =
  let accounted = !n_delivered + !n_dropped + in_flight in
  if !n_injected <> accounted then
    record_violation ~invariant:"packet-conservation"
      ~detail:
        (Printf.sprintf
           "injected=%d but delivered=%d + dropped=%d + in_flight=%d = %d"
           !n_injected !n_delivered !n_dropped in_flight accounted)

(* --------------------- monotonic simulated time ------------------- *)

let clocks : (int, int) Hashtbl.t = Hashtbl.create 4

let note_clock ~clock_id ~now_ns =
  if !on then begin
    (match Hashtbl.find_opt clocks clock_id with
    | Some last when now_ns < last ->
      record_violation ~invariant:"monotonic-time"
        ~detail:
          (Printf.sprintf "scheduler %d: clock moved %dns -> %dns" clock_id
             last now_ns)
    | Some _ | None -> ());
    Hashtbl.replace clocks clock_id now_ns
  end

(* -------------------- per-(flow, port) FIFO order ----------------- *)

let fifo_next : (int * int, int ref) Hashtbl.t = Hashtbl.create 256
let fifo_seen : (int * int, int ref) Hashtbl.t = Hashtbl.create 256

let fifo_tx ~stream ~port =
  if not !on then -1
  else begin
    let key = (stream, port) in
    match Hashtbl.find_opt fifo_next key with
    | Some r ->
      let seq = !r in
      incr r;
      seq
    | None ->
      Hashtbl.replace fifo_next key (ref 1);
      0
  end

let fifo_rx ~stream ~port ~seq =
  if !on && seq >= 0 then begin
    let key = (stream, port) in
    match Hashtbl.find_opt fifo_seen key with
    | Some last ->
      if seq <= !last then
        record_violation ~invariant:"flowlet-fifo"
          ~detail:
            (Printf.sprintf
               "stream %#x port %d: seq %d arrived after seq %d" stream port
               seq !last)
      else last := seq
    | None -> Hashtbl.replace fifo_seen key (ref seq)
  end

(* -------------------- path-weight normalization ------------------- *)

let check_weight_sum ~label weights =
  if !on && Array.length weights > 0 then begin
    let sum = Array.fold_left ( +. ) 0.0 weights in
    if Float.abs (sum -. 1.0) > 1e-6 then
      record_violation ~invariant:"weight-normalization"
        ~detail:
          (Printf.sprintf "%s: %d weights sum to %.9f, expected 1" label
             (Array.length weights) sum)
  end

(* ----------------------------- lifecycle -------------------------- *)

let begin_run () =
  n_injected := 0;
  n_delivered := 0;
  n_dropped := 0;
  Hashtbl.reset drops;
  Hashtbl.reset clocks;
  Hashtbl.reset fifo_next;
  Hashtbl.reset fifo_seen

let reset () =
  begin_run ();
  viols := [];
  n_viols := 0

(* ----------------------------- determinism ------------------------ *)

let check_determinism ~label ~run =
  begin_run ();
  let a = run () in
  begin_run ();
  let b = run () in
  let same = String.equal a b in
  if not same then
    record_violation ~invariant:"determinism"
      ~detail:
        (Printf.sprintf "%s: two seeded runs diverged\n  run1: %s\n  run2: %s"
           label a b);
  same

(* ------------------------------- report --------------------------- *)

let report () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "audit: injected=%d delivered=%d dropped=%d\n" !n_injected
       !n_delivered !n_dropped);
  List.iter
    (fun (reason, n) ->
      Buffer.add_string b (Printf.sprintf "  drop[%s]=%d\n" reason n))
    (drop_reasons ());
  if ok () then Buffer.add_string b "audit: 0 violations\n"
  else begin
    Buffer.add_string b (Printf.sprintf "audit: %d violation(s)\n" !n_viols);
    List.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "  [%s] %s\n" v.invariant v.detail))
      (List.rev !viols)
  end;
  Buffer.contents b
