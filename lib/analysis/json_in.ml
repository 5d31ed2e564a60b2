(* Minimal JSON parsing for CI artifacts.

   The only JSON the repo ever reads back is JSON it wrote itself with
   [Json_out] (committed analyzer baselines), so this is a strict
   recursive-descent parser over that subset: no comments, no trailing
   commas, numbers as OCaml ints when they fit and floats otherwise. *)

type error = { pos : int; msg : string }

exception Fail of error

let fail pos msg = raise (Fail { pos; msg })

type state = { s : string; mutable i : int }

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let skip_ws st =
  while
    st.i < String.length st.s
    && match st.s.[st.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.i <- st.i + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.i <- st.i + 1
  | _ -> fail st.i (Printf.sprintf "expected %c" c)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.i >= String.length st.s then fail st.i "unterminated string"
    else
      match st.s.[st.i] with
      | '"' -> st.i <- st.i + 1
      | '\\' ->
        if st.i + 1 >= String.length st.s then fail st.i "bad escape"
        else begin
          (match st.s.[st.i + 1] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if st.i + 5 >= String.length st.s then fail st.i "bad \\u escape";
            let hex = String.sub st.s (st.i + 2) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail st.i "bad \\u escape"
            in
            (* keep it simple: BMP code points as UTF-8 *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            st.i <- st.i + 4
          | c -> fail st.i (Printf.sprintf "bad escape \\%c" c));
          st.i <- st.i + 2;
          go ()
        end
      | c ->
        Buffer.add_char buf c;
        st.i <- st.i + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_literal st lit v =
  let n = String.length lit in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = lit then begin
    st.i <- st.i + n;
    v
  end
  else fail st.i ("expected " ^ lit)

let parse_number st =
  let start = st.i in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.i < String.length st.s && is_num_char st.s.[st.i] do
    st.i <- st.i + 1
  done;
  let tok = String.sub st.s start (st.i - start) in
  match int_of_string_opt tok with
  | Some n -> Json_out.Int n
  | None -> (
    match float_of_string_opt tok with
    | Some f -> Json_out.Float f
    | None -> fail start ("bad number " ^ tok))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.i "unexpected end of input"
  | Some '"' -> Json_out.String (parse_string st)
  | Some '{' ->
    st.i <- st.i + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.i <- st.i + 1;
      Json_out.Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.i <- st.i + 1;
          members ()
        | Some '}' -> st.i <- st.i + 1
        | _ -> fail st.i "expected , or }"
      in
      members ();
      Json_out.Obj (List.rev !fields)
    end
  | Some '[' ->
    st.i <- st.i + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.i <- st.i + 1;
      Json_out.List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.i <- st.i + 1;
          elements ()
        | Some ']' -> st.i <- st.i + 1
        | _ -> fail st.i "expected , or ]"
      in
      elements ();
      Json_out.List (List.rev !items)
    end
  | Some 't' -> parse_literal st "true" (Json_out.Bool true)
  | Some 'f' -> parse_literal st "false" (Json_out.Bool false)
  | Some 'n' -> parse_literal st "null" Json_out.Null
  | Some _ -> parse_number st

let of_string s =
  let st = { s; i = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.i = String.length s then Ok v
    else Error (Printf.sprintf "trailing input at offset %d" st.i)
  | exception Fail { pos; msg } -> Error (Printf.sprintf "%s at offset %d" msg pos)

let of_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

(* accessors for picking reports apart; total, returning options *)

let member key = function
  | Json_out.Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Json_out.List xs -> Some xs | _ -> None
let to_string_opt = function Json_out.String s -> Some s | _ -> None
