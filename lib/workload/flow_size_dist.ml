(* Knots (bytes, cumulative probability).  Values follow the widely used
   discretization of the DCTCP web-search CDF, as shipped with the CONGA /
   HULA simulation harnesses. *)
let web_search =
  Stats.Cdf.of_knots
    [
      (1_000.0, 0.0);
      (6_000.0, 0.15);
      (13_000.0, 0.30);
      (19_000.0, 0.45);
      (33_000.0, 0.60);
      (53_000.0, 0.70);
      (133_000.0, 0.80);
      (667_000.0, 0.90);
      (1_467_000.0, 0.95);
      (3_333_000.0, 0.98);
      (6_667_000.0, 0.99);
      (20_000_000.0, 1.0);
    ]

let data_mining =
  Stats.Cdf.of_knots
    [
      (100.0, 0.0);
      (180.0, 0.10);
      (250.0, 0.20);
      (560.0, 0.30);
      (900.0, 0.40);
      (1_100.0, 0.50);
      (1_870.0, 0.60);
      (3_160.0, 0.70);
      (10_000.0, 0.80);
      (400_000.0, 0.90);
      (3_160_000.0, 0.95);
      (100_000_000.0, 0.98);
      (1_000_000_000.0, 1.0);
    ]

let sample cdf rng =
  let u = Rng.float rng 1.0 in
  Int.max 1 (int_of_float (Stats.Cdf.inverse cdf u))

let mean_bytes = Stats.Cdf.mean

let scale cdf factor =
  if factor <= 0.0 then invalid_arg "Flow_size_dist.scale: factor must be positive";
  let knots =
    Array.to_list (Stats.Cdf.points cdf)
    |> List.map (fun (x, p) -> (x *. factor, p))
  in
  Stats.Cdf.of_knots knots
