(* Unit and property tests for the stats library. *)

open Stats

let feq = Alcotest.(check (float 1e-9))
let feq_loose eps = Alcotest.(check (float eps))

(* -------------------------------- Summary ------------------------- *)

let test_summary_basics () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  feq "mean" 2.5 (Summary.mean s);
  feq "min" 1.0 (Summary.percentile s 0.0);
  feq "max" 4.0 (Summary.percentile s 100.0)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check bool) "mean is nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check bool) "percentile is nan" true (Float.is_nan (Summary.percentile s 50.0))

let test_summary_percentiles () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add s (float_of_int i)
  done;
  feq_loose 1e-6 "median" 50.5 (Summary.percentile s 50.0);
  feq_loose 1e-6 "p99" 99.01 (Summary.percentile s 99.0);
  feq_loose 1e-6 "p0 is min" 1.0 (Summary.percentile s 0.0);
  feq_loose 1e-6 "p100 is max" 100.0 (Summary.percentile s 100.0)

let test_summary_add_after_percentile () =
  (* adding after a percentile query must keep results correct *)
  let s = Summary.create () in
  List.iter (Summary.add s) [ 3.0; 1.0 ];
  feq_loose 1e-6 "median before" 2.0 (Summary.percentile s 50.0);
  Summary.add s 2.0;
  feq_loose 1e-6 "median updated" 2.0 (Summary.percentile s 50.0);
  Summary.add s 9.0;
  feq_loose 1e-6 "median re-sorted" 2.5 (Summary.percentile s 50.0)

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
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_summary_mean_consistent =
  QCheck.Test.make ~name:"mean equals sum/count" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let expected = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      abs_float (Summary.mean s -. expected) < 1e-6)

(* ---------------------------------- Cdf --------------------------- *)

let test_cdf_inverse_roundtrip () =
  let c = Cdf.of_knots [ (0.0, 0.0); (10.0, 0.5); (20.0, 1.0) ] in
  feq "inverse 0.25" 5.0 (Cdf.inverse c 0.25);
  feq "inverse 1.0" 20.0 (Cdf.inverse c 1.0);
  feq "inverse 0.0" 0.0 (Cdf.inverse c 0.0)

let test_cdf_mean () =
  (* uniform on [0, 10]: mean 5 *)
  let c = Cdf.of_knots [ (0.0, 0.0); (10.0, 1.0) ] in
  feq_loose 1e-9 "uniform mean" 5.0 (Cdf.mean c)

let test_cdf_malformed () =
  Alcotest.check_raises "decreasing x"
    (Invalid_argument "Cdf.of_knots: knots must be non-decreasing") (fun () ->
      ignore (Cdf.of_knots [ (1.0, 0.0); (0.5, 1.0) ]))

let prop_cdf_inverse_in_support =
  QCheck.Test.make ~name:"inverse stays within support" ~count:200
    QCheck.(float_bound_inclusive 1.0)
    (fun p ->
      let c = Cdf.of_knots [ (1.0, 0.0); (5.0, 0.4); (100.0, 1.0) ] in
      let x = Cdf.inverse c p in
      x >= 1.0 && x <= 100.0)

(* --------------------------------- Table -------------------------- *)

let test_table_render () =
  let t = Table.create ~header:[ "load"; "ECMP"; "Clove" ] in
  Table.add_float_row t ~label:"50" [ 1.5; 0.75 ];
  Table.add_float_row t ~label:"70" [ nan; 2.0 ];
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "header present" true
    (String.length s > 0 && String.sub s 0 4 = "load");
  Alcotest.(check bool) "nan renders as dash" true
    (String.exists (fun c -> c = '-') s)

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_float_row t ~label:"1" [ 2.0 ];
  Alcotest.(check string) "csv" "a,b\n1,2\n" (Table.csv t)

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Table.add_float_row: row width mismatch") (fun () ->
      Table.add_float_row t ~label:"only-one" [])

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
          qc prop_summary_percentile_bounds;
          qc prop_summary_mean_consistent;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "inverse" `Quick test_cdf_inverse_roundtrip;
          Alcotest.test_case "mean" `Quick test_cdf_mean;
          Alcotest.test_case "malformed" `Quick test_cdf_malformed;
          qc prop_cdf_inverse_in_support;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
        ] );
    ]
