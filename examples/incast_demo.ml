(* Partition-aggregate (incast) demo, Section 5.3 of the paper: one client
   requests a response striped over n servers; all n send simultaneously
   and collide on the client's access link.  MPTCP's parallel subflow
   ramp-up makes this worse; Clove-ECN, riding a single unmodified TCP
   stream per server, degrades gracefully.

   Run with: dune exec examples/incast_demo.exe *)

open Experiments

let goodput scheme fanout =
  (* the paper's full 16 servers so fan-in can reach 16 *)
  let params =
    {
      Scenario.default_params with
      Scenario.seed = 5;
      hosts_per_leaf = 16;
      fabric_rate_bps = 40e9;
    }
  in
  Sweep.incast_point ~mode:Run_mode.default ~scheme ~params ~fanout
    ~total_bytes:(int_of_float (1e7 *. params.Scenario.size_scale))
    ~requests:10 ~seeds:[ 1 ]

let () =
  let fanouts = [ 2; 4; 8; 12; 16 ] in
  let schemes = [ Scenario.S_clove_ecn; Scenario.S_mptcp ] in
  Format.printf "Incast: client goodput (Gbps) vs request fan-in@.@.";
  let table =
    Stats.Table.create
      ~header:("fan-in" :: List.map Scenario.scheme_name schemes)
  in
  List.iter
    (fun fanout ->
      let row = List.map (fun s -> goodput s fanout /. 1e9) schemes in
      Stats.Table.add_float_row table ~label:(string_of_int fanout) row)
    fanouts;
  Format.printf "%a@." Stats.Table.pp table
