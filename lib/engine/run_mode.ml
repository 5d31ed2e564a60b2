type t = {
  tiebreak : Event_queue.tiebreak;
  audit : bool;
  shards : int;
  domains : int;
}

let default =
  { tiebreak = Event_queue.Fifo; audit = false; shards = 1;
    domains = Domain_pool.default_domains () }

let serial = { default with domains = 1 }

type transform = string * (t -> t)
type outcome = { mode : string; digest : string; matches : bool }

let check_stability ~modes run =
  let baseline = run serial in
  let outcome (mode, f) =
    let digest = run (f serial) in
    { mode; digest; matches = String.equal digest baseline }
  in
  (baseline, List.map outcome modes)

let pp_outcomes ~label fmt (baseline, outcomes) =
  Format.fprintf fmt "%-22s %-14s %-8s %s@." label "baseline" "" baseline;
  List.iter
    (fun o ->
      Format.fprintf fmt "%-22s %-14s %-8s %s@." label o.mode
        (if o.matches then "ok" else "DIVERGED")
        o.digest)
    outcomes
