type spec =
  | Down of string
  | Up of string
  | Flap of { edge : string; period : Sim_time.span; duty : float }
  | Brownout of { edge : string; capacity_frac : float; loss_prob : float }
  | Feedback_loss of float
  | Probe_loss of float
  | Switch_down of string
  | Switch_up of string

type event = { at : Sim_time.span; until : Sim_time.span option; spec : spec }
type t = event list

type names = {
  resolve_edge : string -> Topology.edge option;
  resolve_switch : string -> int option;
}

(* ---------------------------- resolution -------------------------- *)

type target = Edge of Topology.edge | Switch of int | Vedge

let resolve names spec =
  match spec with
  | Down n | Up n | Flap { edge = n; _ } | Brownout { edge = n; _ } -> (
    match names.resolve_edge n with
    | Some e -> Ok (Edge e)
    | None -> Error (Printf.sprintf "unknown edge %S" n))
  | Switch_down n | Switch_up n -> (
    match names.resolve_switch n with
    | Some node -> Ok (Switch node)
    | None -> Error (Printf.sprintf "unknown switch %S" n))
  | Feedback_loss _ | Probe_loss _ -> Ok Vedge

(* ------------------------------ durations ------------------------- *)

let span_of_string s =
  let len = String.length s in
  let digits_end =
    let i = ref 0 in
    while
      !i < len
      && (match s.[!i] with '0' .. '9' | '.' | '-' -> true | _ -> false)
    do
      incr i
    done;
    !i
  in
  if digits_end = 0 then Error (Printf.sprintf "bad duration %S" s)
  else
    match float_of_string_opt (String.sub s 0 digits_end) with
    | None -> Error (Printf.sprintf "bad duration %S" s)
    | Some v when v < 0.0 -> Error (Printf.sprintf "negative duration %S" s)
    | Some v -> (
      (* conversions go through span_of_sec, the sanctioned time boundary *)
      match String.sub s digits_end (len - digits_end) with
      | "ns" -> Ok (Sim_time.span_of_sec (v *. 1e-9))
      | "us" -> Ok (Sim_time.span_of_sec (v *. 1e-6))
      | "ms" -> Ok (Sim_time.span_of_sec (v *. 1e-3))
      | "s" | "" -> Ok (Sim_time.span_of_sec v)
      | u -> Error (Printf.sprintf "unknown duration unit %S in %S" u s))

let span_to_string sp =
  let sec = Sim_time.span_to_sec sp in
  let ns = sec *. 1e9 in
  (* picking the unit that prints without a fraction: an exact-zero
     remainder is the intent, not a tolerance check — lint: allow float-eq *)
  if Float.rem ns 1e6 = 0.0 then Printf.sprintf "%gms" (sec *. 1e3)
    (* same exact-multiple unit selection — lint: allow float-eq *)
  else if Float.rem ns 1e3 = 0.0 then Printf.sprintf "%gus" (sec *. 1e6)
  else Printf.sprintf "%gns" ns

(* ------------------------------- parsing -------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let split_trim c s =
  String.split_on_char c s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let float_param ~item kvs key =
  match List.assoc_opt key kvs with
  | None -> Ok None
  | Some v -> (
    match float_of_string_opt v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "bad %s=%S in %S" key v item))

let span_param ~item kvs key =
  match List.assoc_opt key kvs with
  | None -> Ok None
  | Some v -> (
    match span_of_string v with
    | Ok sp -> Ok (Some sp)
    | Error e -> Error (Printf.sprintf "%s (param %s of %S)" e key item))

let check_prob ~item ~what p =
  if p >= 0.0 && p < 1.0 then Ok p
  else Error (Printf.sprintf "%s must be in [0, 1) in %S" what item)

(* the keys each verb reads: any other key=value is an error, so a typo
   such as [fraction=] cannot fall back to the default unnoticed *)
let keys_of = function
  | Down _ | Up _ | Switch_down _ | Switch_up _ -> []
  | Flap _ -> [ "period"; "duty"; "until" ]
  | Brownout _ -> [ "frac"; "loss"; "until" ]
  | Feedback_loss _ | Probe_loss _ -> [ "p"; "until" ]

let check_keys ~item ~verb spec kvs =
  let rec go seen = function
    | [] -> Ok ()
    | (k, _) :: _ when List.mem k seen ->
      Error (Printf.sprintf "repeated %s= in %S" k item)
    | (k, _) :: _ when not (List.mem k (keys_of spec)) ->
      Error (Printf.sprintf "%s takes no %s= in %S" verb k item)
    | (k, _) :: rest -> go (k :: seen) rest
  in
  go [] kvs

let parse_item ?names item =
  (* grammar: <verb> [target] [key=value ...] @<start-time> *)
  match String.index_opt item '@' with
  | None -> Error (Printf.sprintf "missing @time in %S" item)
  | Some i ->
    let left = String.sub item 0 i in
    let at_str = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
    let* at = span_of_string at_str in
    let tokens = split_trim ' ' left in
    let kvs, positional =
      List.partition_map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some j ->
            Left
              ( String.sub tok 0 j,
                String.sub tok (j + 1) (String.length tok - j - 1) )
          | None -> Right tok)
        tokens
    in
    let* verb, target =
      match positional with
      | [ v ] -> Ok (v, None)
      | [ v; tgt ] -> Ok (v, Some tgt)
      | [] -> Error (Printf.sprintf "empty fault item %S" item)
      | _ -> Error (Printf.sprintf "too many words in %S" item)
    in
    let tgt =
      match target with
      | Some tgt -> Ok tgt
      | None -> Error (Printf.sprintf "missing target in %S" item)
    in
    let* spec =
      match verb with
      | "down" -> Result.map (fun tgt -> Down tgt) tgt
      | "up" -> Result.map (fun tgt -> Up tgt) tgt
      | "switch-down" -> Result.map (fun tgt -> Switch_down tgt) tgt
      | "switch-up" -> Result.map (fun tgt -> Switch_up tgt) tgt
      | "flap" ->
        let* tgt = tgt in
        let* period = span_param ~item kvs "period" in
        let* duty = float_param ~item kvs "duty" in
        let* period =
          match period with
          | Some p when Sim_time.compare_span p Sim_time.zero_span > 0 -> Ok p
          | Some _ -> Error (Printf.sprintf "flap period must be > 0 in %S" item)
          | None -> Error (Printf.sprintf "flap needs period=<dur> in %S" item)
        in
        let duty = Option.value ~default:0.5 duty in
        if duty <= 0.0 || duty >= 1.0 then
          Error (Printf.sprintf "flap duty must be in (0, 1) in %S" item)
        else Ok (Flap { edge = tgt; period; duty })
      | "brownout" ->
        let* tgt = tgt in
        let* frac = float_param ~item kvs "frac" in
        let* loss = float_param ~item kvs "loss" in
        let frac = Option.value ~default:1.0 frac in
        let loss = Option.value ~default:0.0 loss in
        if frac <= 0.0 || frac > 1.0 then
          Error (Printf.sprintf "brownout frac must be in (0, 1] in %S" item)
        else
          let* loss = check_prob ~item ~what:"brownout loss" loss in
          Ok (Brownout { edge = tgt; capacity_frac = frac; loss_prob = loss })
      | "feedback-loss" | "probe-loss" ->
        (match target with
        | Some t -> Error (Printf.sprintf "unexpected target %S in %S" t item)
        | None ->
          let* p = float_param ~item kvs "p" in
          let* p =
            match p with
            | Some p -> check_prob ~item ~what:"p" p
            | None -> Error (Printf.sprintf "%s needs p=<prob> in %S" verb item)
          in
          if verb = "feedback-loss" then Ok (Feedback_loss p)
          else Ok (Probe_loss p))
      | v -> Error (Printf.sprintf "unknown fault verb %S in %S" v item)
    in
    let* () = check_keys ~item ~verb spec kvs in
    let* until = span_param ~item kvs "until" in
    (* callers with a topology in scope get unknown names as parse errors,
       while the offending item text is still in hand *)
    match Option.map (fun ns -> resolve ns spec) names with
    | Some (Error e) -> Error (Printf.sprintf "%s in %S" e item)
    | None | Some (Ok _) -> Ok { at; until; spec }

let parse ?names s =
  let items = split_trim ';' s in
  if items = [] then Error "empty fault plan"
  else
    let rec go acc = function
      | [] ->
        Ok
          (List.stable_sort
             (fun a b -> Sim_time.compare_span a.at b.at)
             (List.rev acc))
      | item :: rest -> (
        match parse_item ?names item with
        | Ok ev -> go (ev :: acc) rest
        | Error _ as e -> e)
    in
    go [] items

(* ----------------------------- printing --------------------------- *)

let spec_to_string = function
  | Down e -> Printf.sprintf "down %s" e
  | Up e -> Printf.sprintf "up %s" e
  | Flap { edge; period; duty } ->
    Printf.sprintf "flap %s period=%s duty=%g" edge (span_to_string period) duty
  | Brownout { edge; capacity_frac; loss_prob } ->
    Printf.sprintf "brownout %s frac=%g loss=%g" edge capacity_frac loss_prob
  | Feedback_loss p -> Printf.sprintf "feedback-loss p=%g" p
  | Probe_loss p -> Printf.sprintf "probe-loss p=%g" p
  | Switch_down s -> Printf.sprintf "switch-down %s" s
  | Switch_up s -> Printf.sprintf "switch-up %s" s

let event_to_string ev =
  Printf.sprintf "%s%s@%s" (spec_to_string ev.spec)
    (match ev.until with
    | None -> ""
    | Some u -> Printf.sprintf " until=%s" (span_to_string u))
    (span_to_string ev.at)

let to_string plan = String.concat "; " (List.map event_to_string plan)

(* ------------------------- disruption window ---------------------- *)

let disruption_window plan =
  let earlier a b = if Sim_time.compare_span a b <= 0 then a else b in
  let later a b = if Sim_time.compare_span a b >= 0 then a else b in
  let restores ev = match ev.spec with Up _ | Switch_up _ -> true | _ -> false in
  match List.filter (fun ev -> not (restores ev)) plan with
  | [] -> None
  | first :: faults ->
    let start = List.fold_left (fun acc ev -> earlier acc ev.at) first.at faults in
    let ends =
      List.filter_map (fun ev -> if restores ev then Some ev.at else ev.until) plan
    in
    let settle =
      match ends with
      | e :: es -> List.fold_left later e es
      | [] -> List.fold_left (fun acc ev -> later acc ev.at) start plan
    in
    Some (start, settle)
