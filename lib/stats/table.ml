type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }

let fmt_float x =
  if Float.is_nan x then "-"
  else if Float.is_integer x && abs_float x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let add_float_row t ~label values =
  if List.length values + 1 <> List.length t.header then
    invalid_arg "Table.add_float_row: row width mismatch";
  t.rows <- t.rows @ [ label :: List.map fmt_float values ]

let widths t =
  let all = t.header :: t.rows in
  let ncols = List.length t.header in
  let w = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> w.(i) <- Int.max w.(i) (String.length cell)) row in
  List.iter measure all;
  w

let pp fmt t =
  let w = widths t in
  let pad i s = s ^ String.make (w.(i) - String.length s) ' ' in
  let line row =
    let cells = List.mapi pad row in
    Format.fprintf fmt "%s@." (String.concat "  " cells)
  in
  line t.header;
  let rule = Array.to_list (Array.map (fun n -> String.make n '-') w) in
  line rule;
  List.iter line t.rows

let csv t =
  let line row = String.concat "," row in
  String.concat "\n" (List.map line (t.header :: t.rows)) ^ "\n"
