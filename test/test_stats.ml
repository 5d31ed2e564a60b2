(* Unit and property tests for the stats library. *)

open Stats

let feq = Alcotest.(check (float 1e-9))
let feq_loose eps = Alcotest.(check (float eps))

(* -------------------------------- Summary ------------------------- *)

let test_summary_basics () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  feq "mean" 2.5 (Summary.mean s);
  feq "total" 10.0 (Summary.total s);
  feq "min" 1.0 (Summary.min_value s);
  feq "max" 4.0 (Summary.max_value s);
  Alcotest.(check int) "count" 4 (Summary.count s)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check bool) "percentile is nan" true (Float.is_nan (Summary.percentile s 50.0))

let test_summary_percentiles () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add s (float_of_int i)
  done;
  feq_loose 1e-6 "median" 50.5 (Summary.median s);
  feq_loose 1e-6 "p99" 99.01 (Summary.percentile s 99.0);
  feq_loose 1e-6 "p0 is min" 1.0 (Summary.percentile s 0.0);
  feq_loose 1e-6 "p100 is max" 100.0 (Summary.percentile s 100.0)

let test_summary_add_after_percentile () =
  (* adding after a percentile query must keep results correct *)
  let s = Summary.create () in
  List.iter (Summary.add s) [ 3.0; 1.0 ];
  ignore (Summary.median s);
  Summary.add s 2.0;
  feq_loose 1e-6 "median updated" 2.0 (Summary.median s)

let test_summary_stddev () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  feq_loose 1e-9 "known stddev" 2.0 (Summary.stddev s)

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () in
  List.iter (Summary.add a) [ 1.0; 2.0 ];
  List.iter (Summary.add b) [ 3.0; 4.0 ];
  let m = Summary.merge a b in
  Alcotest.(check int) "count" 4 (Summary.count m);
  feq "mean" 2.5 (Summary.mean m)

let prop_summary_percentile_bounds =
  QCheck.Test.make ~name:"percentiles lie within [min,max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let v = Summary.percentile s p in
      v >= Summary.min_value s -. 1e-9 && v <= Summary.max_value s +. 1e-9)

let prop_summary_mean_consistent =
  QCheck.Test.make ~name:"mean equals sum/count" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let expected = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Summary.mean s -. expected) < 1e-6)

(* ---------------------------------- Cdf --------------------------- *)

let test_cdf_of_knots_eval () =
  let c = Cdf.of_knots [ (0.0, 0.0); (10.0, 0.5); (20.0, 1.0) ] in
  feq "below" 0.0 (Cdf.eval c (-1.0));
  feq "at knot" 0.5 (Cdf.eval c 10.0);
  feq "interpolated" 0.25 (Cdf.eval c 5.0);
  feq "above" 1.0 (Cdf.eval c 25.0)

let test_cdf_inverse_roundtrip () =
  let c = Cdf.of_knots [ (0.0, 0.0); (10.0, 0.5); (20.0, 1.0) ] in
  feq "inverse 0.25" 5.0 (Cdf.inverse c 0.25);
  feq "inverse 1.0" 20.0 (Cdf.inverse c 1.0);
  feq "inverse 0.0" 0.0 (Cdf.inverse c 0.0)

let test_cdf_mean () =
  (* uniform on [0, 10]: mean 5 *)
  let c = Cdf.of_knots [ (0.0, 0.0); (10.0, 1.0) ] in
  feq_loose 1e-9 "uniform mean" 5.0 (Cdf.mean c)

let test_cdf_of_samples () =
  let c = Cdf.of_samples [| 3.0; 1.0; 2.0 |] in
  feq_loose 1e-9 "p(x<=1)" (1.0 /. 3.0) (Cdf.eval c 1.0);
  feq_loose 1e-9 "p(x<=3)" 1.0 (Cdf.eval c 3.0)

let test_cdf_malformed () =
  Alcotest.check_raises "decreasing x"
    (Invalid_argument "Cdf.of_knots: knots must be non-decreasing") (fun () ->
      ignore (Cdf.of_knots [ (1.0, 0.0); (0.5, 1.0) ]))

let prop_cdf_eval_monotone =
  QCheck.Test.make ~name:"cdf eval is monotone" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 20) (float_bound_exclusive 100.0))
        (pair (float_bound_exclusive 120.0) (float_bound_exclusive 120.0)))
    (fun (xs, (a, b)) ->
      let xs = List.sort_uniq compare xs in
      QCheck.assume (List.length xs >= 2);
      let n = List.length xs in
      let knots = List.mapi (fun i x -> (x, float_of_int (i + 1) /. float_of_int n)) xs in
      let knots = (List.hd xs -. 1.0, 0.0) :: knots in
      let c = Cdf.of_knots knots in
      let lo = min a b and hi = max a b in
      Cdf.eval c lo <= Cdf.eval c hi +. 1e-9)

let prop_cdf_inverse_in_support =
  QCheck.Test.make ~name:"inverse stays within support" ~count:200
    QCheck.(float_bound_inclusive 1.0)
    (fun p ->
      let c = Cdf.of_knots [ (1.0, 0.0); (5.0, 0.4); (100.0, 1.0) ] in
      let x = Cdf.inverse c p in
      x >= 1.0 && x <= 100.0)

(* --------------------------------- Table -------------------------- *)

(* --------------------------- Quantile_sketch ---------------------- *)

(* true rank of [v] in [values]: how many samples are <= v *)
let rank_of values v = Array.fold_left (fun n x -> if x <= v then n + 1 else n) 0 values

(* |true_rank(quantile q) - q*n| must stay within the documented
   guarantee [rank_error * n] (+1 for the ceil of the target rank) *)
let check_rank_bound ~name sk values qs =
  let n = Array.length values in
  let slack = (Quantile_sketch.rank_error sk *. float_of_int n) +. 1.0 in
  List.iter
    (fun q ->
      let v = Quantile_sketch.quantile sk q in
      let err = abs_float (float_of_int (rank_of values v) -. (q *. float_of_int n)) in
      if err > slack then
        Alcotest.failf "%s: q=%.3f rank error %.0f > allowed %.0f" name q err slack)
    qs

let quantile_probes = [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_sketch_exact_small () =
  (* below the compression threshold every leaf survives, so quantiles
     are exact order statistics *)
  let sk = Quantile_sketch.create () in
  let values = Array.init 100 (fun i -> (i * 17) mod 101) in
  Array.iter (Quantile_sketch.add sk) values;
  Alcotest.(check int) "count" 100 (Quantile_sketch.count sk);
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Alcotest.(check int) "median is an order statistic" sorted.(49)
    (Quantile_sketch.quantile sk 0.5)

let test_sketch_rank_error_bound () =
  (* a small k forces heavy compression; three shapes of stream *)
  let shapes =
    [
      ("uniform", Array.init 50_000 (fun i -> (i * 9973) mod 1_000_000));
      ("skewed", Array.init 50_000 (fun i -> i * i mod 16_777_216));
      ("clustered", Array.init 50_000 (fun i -> 1000 * (i mod 7)));
    ]
  in
  List.iter
    (fun (name, values) ->
      let sk = Quantile_sketch.create ~k:64 ~u_bits:24 () in
      Array.iter (Quantile_sketch.add sk) values;
      check_rank_bound ~name sk values quantile_probes)
    shapes

let test_sketch_merge_union () =
  (* merging shard sketches must answer for the union within the same
     guarantee — the PDES per-shard sink contract *)
  let a = Quantile_sketch.create ~k:64 ~u_bits:24 () in
  let b = Quantile_sketch.create ~k:64 ~u_bits:24 () in
  let va = Array.init 20_000 (fun i -> (i * 7919) mod 500_000) in
  let vb = Array.init 30_000 (fun i -> 500_000 + ((i * 104729) mod 500_000)) in
  Array.iter (Quantile_sketch.add a) va;
  Array.iter (Quantile_sketch.add b) vb;
  let m = Quantile_sketch.merge a b in
  Alcotest.(check int) "merged count" 50_000 (Quantile_sketch.count m);
  check_rank_bound ~name:"merge" m (Array.append va vb) quantile_probes

let test_sketch_deterministic () =
  let build () =
    let sk = Quantile_sketch.create ~k:64 ~u_bits:24 () in
    for i = 0 to 9_999 do
      Quantile_sketch.add sk ((i * 31) mod 65_536)
    done;
    List.map (Quantile_sketch.quantile sk) quantile_probes
  in
  Alcotest.(check (list int)) "two builds agree" (build ()) (build ())

let test_sketch_node_bound () =
  let k = 64 in
  let sk = Quantile_sketch.create ~k ~u_bits:24 () in
  for i = 0 to 99_999 do
    Quantile_sketch.add sk ((i * 2654435761) land 0xFFFFFF)
  done;
  Alcotest.(check bool) "nodes within 3k+1" true
    (Quantile_sketch.nodes sk <= (3 * k) + 1)

let prop_sketch_rank_error =
  QCheck.Test.make ~name:"sketch rank error within guarantee" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 2_000) (int_bound 4_095))
    (fun values ->
      let values = Array.of_list values in
      let sk = Quantile_sketch.create ~k:16 ~u_bits:12 () in
      Array.iter (Quantile_sketch.add sk) values;
      let n = Array.length values in
      let slack = (Quantile_sketch.rank_error sk *. float_of_int n) +. 1.0 in
      List.for_all
        (fun q ->
          let v = Quantile_sketch.quantile sk q in
          abs_float (float_of_int (rank_of values v) -. (q *. float_of_int n))
          <= slack)
        quantile_probes)

let test_table_render () =
  let t = Table.create ~header:[ "load"; "ECMP"; "Clove" ] in
  Table.add_float_row t ~label:"50" [ 1.5; 0.75 ];
  Table.add_float_row t ~label:"70" [ nan; 2.0 ];
  let s = Table.to_string t in
  Alcotest.(check bool) "header present" true
    (String.length s > 0 && String.sub s 0 4 = "load");
  Alcotest.(check bool) "nan renders as dash" true
    (String.exists (fun c -> c = '-') s)

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Alcotest.(check string) "csv" "a,b\n1,2\n" (Table.csv t)

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
          Alcotest.test_case "add after percentile" `Quick test_summary_add_after_percentile;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          qc prop_summary_percentile_bounds;
          qc prop_summary_mean_consistent;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "knots eval" `Quick test_cdf_of_knots_eval;
          Alcotest.test_case "inverse" `Quick test_cdf_inverse_roundtrip;
          Alcotest.test_case "mean" `Quick test_cdf_mean;
          Alcotest.test_case "of samples" `Quick test_cdf_of_samples;
          Alcotest.test_case "malformed" `Quick test_cdf_malformed;
          qc prop_cdf_eval_monotone;
          qc prop_cdf_inverse_in_support;
        ] );
      ( "quantile_sketch",
        [
          Alcotest.test_case "exact when uncompressed" `Quick
            test_sketch_exact_small;
          Alcotest.test_case "rank error within bound" `Quick
            test_sketch_rank_error_bound;
          Alcotest.test_case "merge equals union" `Quick test_sketch_merge_union;
          Alcotest.test_case "deterministic" `Quick test_sketch_deterministic;
          Alcotest.test_case "node bound" `Quick test_sketch_node_bound;
          qc prop_sketch_rank_error;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        ] );
    ]
