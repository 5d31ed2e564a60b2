(* clove-sim: command-line front end for the Clove reproduction.

   Subcommands:
     run         — one workload point (scheme, load, topology), prints FCT stats
     exp         — regenerate paper figures by id (fig4b ... fig9, ablations,
                   extensions) into results/<id>.csv
     list        — list available experiments
     determinism — every experiment and chaos row must print the same
                   digest in every execution mode
     chaos       — execute a deterministic fault plan against each scheme and
                   print the per-scheme resilience scorecard + FCT digests *)

open Cmdliner
open Experiments

(* a bad option value exits 2 before anything runs, like an unknown
   experiment id *)
let reject fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "clove-sim: %s@." msg;
      exit 2)
    fmt

let at_least_1 flag n = if n < 1 then reject "%s must be >= 1 (got %d)" flag n

let check_load load =
  match Workload.Websearch.check_load load with
  | Ok () -> ()
  | Error e -> reject "--load: %s" e

(* the options every workload run shares *)
let check_workload ~load ~jobs ~hosts =
  check_load load;
  at_least_1 "--jobs" jobs;
  at_least_1 "--hosts" hosts

let scheme_conv =
  let parse s =
    match Scenario.scheme_of_string s with
    | Some sch -> Ok sch
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print fmt s = Format.pp_print_string fmt (Scenario.scheme_name s) in
  Arg.conv (parse, print)

let scheme_arg =
  let doc =
    "Load-balancing scheme: ecmp, edge-flowlet, clove-ecn, clove-int, \
     clove-latency, presto, mptcp, conga, letflow, caft."
  in
  Arg.(value & opt scheme_conv Scenario.S_clove_ecn & info [ "scheme"; "s" ] ~doc)

let load_arg =
  let doc = "Offered load as a fraction of the bisection bandwidth." in
  Arg.(value & opt float 0.5 & info [ "load"; "l" ] ~doc)

let jobs_arg =
  let doc = "Jobs per persistent connection." in
  Arg.(value & opt int 150 & info [ "jobs"; "j" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let asym_arg =
  let doc = "Fail one spine-leaf link (the paper's asymmetric topology)." in
  Arg.(value & flag & info [ "asymmetric"; "a" ] ~doc)

let hosts_arg =
  let doc = "Hosts per leaf (paper: 16; scaled default: 8)." in
  Arg.(value & opt int 8 & info [ "hosts" ] ~doc)

let domains_arg =
  let doc =
    "Number of domains for parallel sweeps (default: cores - 1).  Figure \
     output is bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc ~docv:"N")

let shards_arg =
  let doc =
    "Shard the fabric across N domains with conservative time-window PDES \
     (one shard per leaf, spines round-robin).  1 (default) is the serial \
     engine; figure and chaos digests are byte-identical for any N."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~doc ~docv:"N")

(* the run mode the flags describe; a width below 1 exits 2 *)
let mode_of ?domains ?(audit = false) shards =
  Option.iter (at_least_1 "--domains") domains;
  at_least_1 "--shards" shards;
  let domains = Option.value domains ~default:Run_mode.default.Run_mode.domains in
  { Run_mode.default with Run_mode.domains; shards; audit }

let quick_arg =
  let doc =
    "Quick mode: 12 jobs per connection and a single seed per point (the \
     default is 150 jobs over seeds 1-3)."
  in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let full_arg =
  let doc = "Full mode: 400 jobs per connection over seeds 1-3 (slow)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let run_cmd =
  let run scheme load jobs seed asym hosts shards =
    check_workload ~load ~jobs ~hosts;
    let mode = mode_of shards in
    let params =
      {
        Scenario.default_params with
        Scenario.asymmetric = asym;
        seed;
        hosts_per_leaf = hosts;
        fabric_rate_bps = float_of_int hosts *. 10e9 /. 4.0;
      }
    in
    let fct = Sweep.websearch_run ~mode ~scheme ~params ~load ~jobs_per_conn:jobs in
    let mice = Scenario.scaled_cutoff params Workload.Fct_stats.mice_cutoff in
    Format.printf "scheme          : %s@." (Scenario.scheme_name scheme);
    Format.printf "topology        : %s, %d hosts/leaf@."
      (if asym then "asymmetric" else "symmetric")
      hosts;
    Format.printf "load            : %.0f%%@." (100.0 *. load);
    Format.printf "flows completed : %d@." (Workload.Fct_stats.count fct);
    Format.printf "avg FCT         : %.4f s@." (Workload.Fct_stats.avg fct);
    Format.printf "avg FCT (mice)  : %.4f s@."
      (Workload.Fct_stats.avg ~max_size:mice fct);
    Format.printf "p99 FCT         : %.4f s@."
      (Workload.Fct_stats.percentile fct 99.0)
  in
  let term =
    Term.(
      const run $ scheme_arg $ load_arg $ jobs_arg $ seed_arg $ asym_arg
      $ hosts_arg $ shards_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload point and print FCT statistics.") term

(* the presets that produced EXPERIMENTS.md and results/*.csv *)
let opts_of ~quick ~full =
  if quick then Sweep.quick_opts
  else if full then { Sweep.default_opts with Sweep.jobs_per_conn = 400 }
  else Sweep.default_opts

let experiments = Figures.all @ Extensions.all

(* the entries named by [ids], all by default; an unknown id exits 2 *)
let select ~what entries ids =
  match List.filter (fun id -> not (List.mem_assoc id entries)) ids with
  | [] when ids = [] -> entries
  | [] -> List.map (fun id -> (id, List.assoc id entries)) ids
  | unknown ->
    List.iter (fun id -> Format.eprintf "unknown %s %S@." what id) unknown;
    exit 2

let ids_arg ~docv = Arg.(value & pos_all string [] & info [] ~docv)

let exp_cmd =
  let run ids quick full domains shards =
    let opts = { (opts_of ~quick ~full) with Sweep.mode = mode_of ?domains shards } in
    let selected = select ~what:"experiment" experiments ids in
    (try Sys.mkdir "results" 0o755 with Sys_error _ -> ());
    List.iter
      (fun (id, runner) ->
        let report = runner opts in
        Format.printf "%a@." Figures.pp_report report;
        (* machine-readable copy for plotting *)
        let oc = open_out (Filename.concat "results" (id ^ ".csv")) in
        output_string oc (Stats.Table.csv report.Figures.table);
        close_out oc)
      selected
  in
  let term =
    Term.(
      const run $ ids_arg ~docv:"EXPERIMENT" $ quick_arg $ full_arg $ domains_arg
      $ shards_arg)
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "Regenerate one or more paper figures (all of them by default), \
          printing each table and writing it to results/<id>.csv; exits 2 \
          on an unknown id before running anything.")
    term

let determinism_cmd =
  let run ids =
    let diverged =
      List.concat_map
        (fun (id, digest) ->
          let result = Sweep.check_stability digest in
          Format.printf "%a%!" (Run_mode.pp_outcomes ~label:id) result;
          List.filter_map
            (fun o -> if o.Run_mode.matches then None else Some (id, o.Run_mode.mode))
            (snd result))
        (select ~what:"row" Extensions.determinism_rows ids)
    in
    match diverged with
    | [] -> ()
    | (id, mode) :: _ ->
      Format.eprintf "clove-sim determinism: %s diverged under %s@." id mode;
      exit 1
  in
  Cmd.v
    (Cmd.info "determinism"
       ~doc:
         "Run matrix rows (all by default: every experiment id at -q, the \
          default chaos run, each 3-tier chaos preset) serially, then at \
          --domains 2, at --shards 2 and under reversed tie-breaking, \
          printing one digest line per (row, mode); exits 1 naming the \
          first differing (row, mode), and 2 on an unknown row.")
    Term.(const run $ ids_arg ~docv:"ROW")

(* chaos's topology options; 0 cores or 0 Gbit/s mean the default.  Core
   k homes on spine k mod 2: every Scenario pod has 2 spines *)
let check_topology ~pods ~cores ~core_rate =
  at_least_1 "--pods" pods;
  if cores < 0 || cores mod 2 <> 0 then
    reject
      "--cores must be 0 or a positive multiple of the 2 spines per pod \
       (got %d)"
      cores;
  if not (core_rate >= 0.0) then
    reject "--core-rate-gbps must be >= 0 (got %g)" core_rate

let chaos_cmd =
  let run faults preset schemes load jobs seed hosts pods cores core_rate
      domains shards audit no_recovery assert_recovery =
    check_workload ~load ~jobs ~hosts;
    check_topology ~pods ~cores ~core_rate;
    let mode = mode_of ?domains ~audit shards in
    let params =
      {
        Chaos.default_opts.Chaos.params with
        Scenario.seed;
        hosts_per_leaf = hosts;
        fabric_rate_bps = float_of_int hosts *. 10e9 /. 4.0;
        pods;
        cores;
        core_rate_bps = core_rate *. 1e9;
        failure_recovery = not no_recovery;
      }
    in
    let faults =
      match preset with
      | None -> faults
      | Some name -> (
        match Chaos.preset_spec params name with
        | Ok spec -> spec
        | Error e ->
          Format.eprintf "clove-sim chaos: %s@." e;
          exit 2)
    in
    (* parse-time validation: unknown switch/edge names for THIS topology
       are rejected here, before any scenario is built *)
    let plan =
      match Faults.Fault_plan.parse ~names:(Scenario.fault_names params) faults
      with
      | Ok p -> p
      | Error e ->
        Format.eprintf "clove-sim chaos: bad --faults spec: %s@." e;
        exit 2
    in
    let schemes =
      if schemes = [] then Chaos.default_opts.Chaos.schemes else schemes
    in
    let opts = { Chaos.plan; schemes; load; jobs_per_conn = jobs; params; mode } in
    let rows = Chaos.run opts in
    Format.printf "%a" (Chaos.pp_rows opts) rows;
    if audit then begin
      Format.printf "%a" Chaos.pp_ledgers rows;
      if not (Array.for_all (fun r -> Ledger.ok r.Chaos.r_ledger) rows) then exit 1
    end;
    if assert_recovery then begin
      (* the congestion-aware fault-tolerant schemes must recover *)
      let is_adaptive r =
        match r.Chaos.r_scheme with
        | Scenario.S_clove_ecn | Scenario.S_clove_int | Scenario.S_clove_latency
        | Scenario.S_caft ->
          true
        | _ -> false
      in
      (match Array.to_list rows |> List.filter is_adaptive with
      | [] ->
        Format.eprintf "chaos: --assert-recovery needs a clove-* or caft scheme@.";
        exit 2
      | adaptive_rows ->
        List.iter
          (fun r ->
            if r.Chaos.r_score.Chaos.sc_ttr = None then begin
              Format.eprintf "chaos: %s did not recover@."
                (Scenario.scheme_name r.Chaos.r_scheme);
              exit 1
            end)
          adaptive_rows);
      (* when CAFT and ECMP both ran, CAFT's time-to-recover must beat
         ECMP's (the 3-tier flagship's headline claim); a tie fails *)
      let find s =
        Array.to_list rows |> List.find_opt (fun r -> r.Chaos.r_scheme = s)
      in
      match (find Scenario.S_caft, find Scenario.S_ecmp) with
      | Some caft_row, Some ecmp_row ->
        let ttr r =
          match r.Chaos.r_score.sc_ttr with Some t -> t | None -> infinity
        in
        if not (ttr caft_row < ttr ecmp_row) then begin
          Format.eprintf
            "chaos: CAFT time-to-recover (%.0f ms) does not beat ECMP's \
             (%.0f ms)@."
            (1e3 *. ttr caft_row) (1e3 *. ttr ecmp_row);
          exit 1
        end
      | _ -> ()
    end
  in
  let faults_arg =
    let doc =
      "Fault plan, e.g. $(b,\"down s2-l2b@60ms; up s2-l2b@120ms\").  \
       Verbs: down, up, flap (period=, duty=), brownout (frac=, loss=), \
       feedback-loss (p=), probe-loss (p=), switch-down, switch-up; \
       $(b,until=) ends a flap, brownout, feedback-loss or probe-loss and \
       no other verb.  Any other key is an error.  Times use ns/us/ms/s \
       suffixes."
    in
    Arg.(
      value
      & opt string Chaos.link_down_spec
      & info [ "faults"; "f" ] ~doc ~docv:"PLAN")
  in
  let preset_arg =
    let doc =
      Printf.sprintf
        "Pod-level gray-failure preset (overrides $(b,--faults)): %s.  \
         Requires $(b,--pods) >= 2."
        (String.concat ", " Chaos.preset_names)
    in
    Arg.(value & opt (some string) None & info [ "preset" ] ~doc ~docv:"NAME")
  in
  let schemes_arg =
    let doc =
      "Scheme to score (repeatable; default: clove-ecn and ecmp; $(b,caft) \
       adds the fabric-side congestion-aware fault-tolerant baseline)."
    in
    Arg.(value & opt_all scheme_conv [] & info [ "scheme"; "s" ] ~doc)
  in
  let pods_arg =
    let doc =
      "Pod count: 1 runs the paper's 2-tier leaf-spine; >= 2 builds a 3-tier \
       Clos with a core tier."
    in
    Arg.(value & opt int 1 & info [ "pods" ] ~doc)
  in
  let cores_arg =
    let doc =
      "Core-switch count for 3-tier runs (0 = two core uplinks per spine)."
    in
    Arg.(value & opt int 0 & info [ "cores" ] ~doc)
  in
  let core_rate_arg =
    let doc =
      "Spine-core link rate in Gbit/s for 3-tier runs (0 = the fabric rate)."
    in
    Arg.(value & opt float 0.0 & info [ "core-rate-gbps" ] ~doc)
  in
  let audit_arg =
    let doc =
      "Run with the runtime invariant auditor: print each scheme's ledger (packet \
       conservation and violations over its faulted and fault-free runs); exit 1 \
       on any violation."
    in
    Arg.(value & flag & info [ "audit" ] ~doc)
  in
  let no_recovery_arg =
    let doc =
      "Disable the Clove failure-recovery hardening (black-hole negative \
       control)."
    in
    Arg.(value & flag & info [ "no-recovery" ] ~doc)
  in
  let assert_recovery_arg =
    let doc =
      "Exit 1 unless every clove-* and caft scheme recovers to within 10% of \
       its fault-free baseline; when both caft and ecmp ran, also require \
       caft's time-to-recover to be better than ecmp's."
    in
    Arg.(value & flag & info [ "assert-recovery" ] ~doc)
  in
  let chaos_jobs_arg =
    let doc =
      "Jobs per persistent connection (the run must outlast the fault plan)."
    in
    Arg.(value & opt int 750 & info [ "jobs"; "j" ] ~doc)
  in
  let chaos_load_arg =
    let doc = "Offered load as a fraction of the bisection bandwidth." in
    Arg.(value & opt float 0.25 & info [ "load"; "l" ] ~doc)
  in
  let term =
    Term.(
      const run $ faults_arg $ preset_arg $ schemes_arg $ chaos_load_arg
      $ chaos_jobs_arg $ seed_arg $ hosts_arg $ pods_arg $ cores_arg
      $ core_rate_arg $ domains_arg $ shards_arg $ audit_arg $ no_recovery_arg
      $ assert_recovery_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Execute a deterministic fault plan against each scheme and print a \
          resilience scorecard (pre/fault/post FCT, goodput lost, \
          time-to-recover) plus per-scheme FCT digests.")
    term

let list_cmd =
  let run () = List.iter (fun (id, _) -> print_endline id) experiments in
  Cmd.v (Cmd.info "list" ~doc:"List experiment ids.") Term.(const run $ const ())

let () =
  let doc = "Clove (CoNEXT'17) reproduction: congestion-aware edge load balancing." in
  let info = Cmd.info "clove-sim" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ run_cmd; exp_cmd; list_cmd; determinism_cmd; chaos_cmd ]))
