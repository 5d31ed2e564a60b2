type t = {
  tiebreak : Event_queue.tiebreak;
  tbl_salt : int;
  audit : bool;
  shards : int;
  domains : int;
}

let default =
  { tiebreak = Event_queue.Fifo; tbl_salt = 0; audit = false; shards = 1;
    domains = Domain_pool.default_domains () }

let serial = { default with domains = 1 }

let perturbed_size t n =
  if t.tbl_salt = 0 then n
  else begin
    (* deterministic per-(size, salt) delta: tables of the same requested
       size still diverge across salts, and a given (size, salt) pair is
       stable so perturbed runs remain exactly reproducible *)
    let h = (n * 0x9E3779B1) lxor (t.tbl_salt * 0x85EBCA77) in
    let h = (h lxor (h lsr 13)) land 0xFF in
    max 1 (n + 1 + (h mod 61))
  end

type transform = string * (t -> t)
type outcome = { mode : string; digest : string; matches : bool }

let rerun = ("rerun", Fun.id)

let standard =
  [
    rerun;
    ("tiebreak-lifo", fun m -> { m with tiebreak = Event_queue.Lifo });
    ("tbl-salt-3", fun m -> { m with tbl_salt = 3 });
    ("tbl-salt-11", fun m -> { m with tbl_salt = 11 });
  ]

let check_stability ?(modes = standard) run =
  let baseline = run serial in
  let outcome (mode, f) =
    let digest = run (f serial) in
    { mode; digest; matches = String.equal digest baseline }
  in
  (baseline, List.map outcome modes)

let stable outcomes = List.for_all (fun o -> o.matches) outcomes

let pp_outcomes ~label fmt (baseline, outcomes) =
  Format.fprintf fmt "%-22s %-14s %-8s %s@." label "baseline" "" baseline;
  List.iter
    (fun o ->
      Format.fprintf fmt "%-22s %-14s %-8s %s@." label o.mode
        (if o.matches then "ok" else "DIVERGED")
        o.digest)
    outcomes
