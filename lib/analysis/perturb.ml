type tiebreak = Fifo | Lifo

let tiebreak = ref Fifo
let tbl_size_salt = ref 0

let perturbed_size n =
  let salt = !tbl_size_salt in
  if salt = 0 then n
  else begin
    (* deterministic per-(size, salt) delta: tables of the same requested
       size still diverge across salts, and a given (size, salt) pair is
       stable so perturbed runs remain exactly reproducible *)
    let h = (n * 0x9E3779B1) lxor (salt * 0x85EBCA77) in
    let h = (h lxor (h lsr 13)) land 0xFF in
    max 1 (n + 1 + (h mod 61))
  end

let with_settings ~tb ~salt f =
  let saved_tb = !tiebreak and saved_salt = !tbl_size_salt in
  tiebreak := tb;
  tbl_size_salt := salt;
  Fun.protect
    ~finally:(fun () ->
      tiebreak := saved_tb;
      tbl_size_salt := saved_salt)
    f

type mode = string * ((unit -> string) -> string)
type outcome = { mode : string; digest : string; matches : bool }

let rerun = ("rerun", fun run -> run ())

let standard_modes =
  [
    rerun;
    ("tiebreak-lifo", with_settings ~tb:Lifo ~salt:0);
    ("tbl-salt-3", with_settings ~tb:Fifo ~salt:3);
    ("tbl-salt-11", with_settings ~tb:Fifo ~salt:11);
  ]

let check_schedule_stability ?(modes = standard_modes) ~label ~run () =
  let run () =
    Audit.begin_run ();
    run ()
  in
  let baseline = with_settings ~tb:Fifo ~salt:0 run in
  let outcomes =
    List.map
      (fun (mode, under) ->
        let digest = under run in
        let matches = String.equal digest baseline in
        if not matches then
          Audit.record_violation ~invariant:"schedule-stability"
            ~detail:
              (Printf.sprintf
                 "%s: digest diverged under %s\n  baseline:  %s\n  perturbed: %s"
                 label mode baseline digest);
        { mode; digest; matches })
      modes
  in
  (baseline, outcomes)

let stable outcomes = List.for_all (fun o -> o.matches) outcomes

let pp_outcomes ~label fmt (baseline, outcomes) =
  Format.fprintf fmt "%-22s %-14s %-8s %s@." label "baseline" "" baseline;
  List.iter
    (fun o ->
      Format.fprintf fmt "%-22s %-14s %-8s %s@." label o.mode
        (if o.matches then "ok" else "DIVERGED")
        o.digest)
    outcomes
