let create n = Hashtbl.create (Analysis.Perturb.perturbed_size n)

(* [cmp] is the caller's typed key compare (the [~compare] label), not
   the polymorphic one clove-lint bans. *)
let sorted_bindings ~compare:cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let iter_sorted ~compare f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ~compare tbl)

let fold_sorted ~compare f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ~compare tbl)
