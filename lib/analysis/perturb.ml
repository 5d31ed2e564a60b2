type tiebreak = Fifo | Lifo

let tiebreak = ref Fifo
let tbl_size_salt = ref 0

let set_tbl_size_salt s = tbl_size_salt := max 0 s

let reset () =
  tiebreak := Fifo;
  tbl_size_salt := 0

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

type outcome = { perturbation : string; digest : string; matches : bool }

let with_settings ~tb ~salt f =
  let saved_tb = !tiebreak and saved_salt = !tbl_size_salt in
  tiebreak := tb;
  tbl_size_salt := salt;
  Fun.protect
    ~finally:(fun () ->
      tiebreak := saved_tb;
      tbl_size_salt := saved_salt)
    f

let standard_perturbations = [ ("tiebreak-lifo", Lifo, 0); ("tbl-salt-3", Fifo, 3); ("tbl-salt-11", Fifo, 11) ]

let check_schedule_stability ?(perturbations = standard_perturbations) ~label ~run () =
  let baseline = with_settings ~tb:Fifo ~salt:0 run in
  let outcomes =
    List.map
      (fun (name, tb, salt) ->
        let digest = with_settings ~tb ~salt run in
        let matches = String.equal digest baseline in
        if not matches then
          Audit.record_violation ~invariant:"schedule-stability"
            ~detail:
              (Printf.sprintf
                 "%s: digest diverged under %s\n  baseline:  %s\n  perturbed: %s"
                 label name baseline digest);
        { perturbation = name; digest; matches })
      perturbations
  in
  (baseline, outcomes)

let stable outcomes = List.for_all (fun o -> o.matches) outcomes

let pp_outcomes fmt (baseline, outcomes) =
  Format.fprintf fmt "baseline digest: %s@." baseline;
  List.iter
    (fun o ->
      Format.fprintf fmt "  %-16s %s  %s@." o.perturbation
        (if o.matches then "ok" else "DIVERGED")
        o.digest)
    outcomes
