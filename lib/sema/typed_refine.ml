(* Typed refinement of the syntactic sema rules.

   The parsetree rules in [Rules] are deliberately cheap, which makes
   them wrong in one recognizable situation on this codebase: a
   [sema-domain-parallel] line whose only multicore-module mention is
   a plain [Atomic.get] is a benign read of a published value, not
   coordination logic escaping the sanctioned pool.  When a .cmt is
   available we can see that in the typedtree and drop the false
   positive instead of demanding a [lint: allow] annotation.

   (The hot-path allocation refinements that used to live here —
   audited error paths, cancellable timers — moved to
   [Alloc_extract.cold_spans]: clove-check replaced the syntactic
   sema-hotpath-alloc rule with reachability from the dispatch
   roots.) *)

type t = {
  r_benign_par : (string * int, unit) Hashtbl.t;  (* (file, line) *)
  r_other_par : (string * int, unit) Hashtbl.t;
}

let empty () =
  { r_benign_par = Hashtbl.create 1; r_other_par = Hashtbl.create 1 }

let parallel_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Thread" ]

(* ------------------------------ scan ------------------------------ *)

let scan_unit (u : Cmt_load.unit_info) acc =
  let file = u.Cmt_load.u_source in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> (
            let parts = Race_extract.parts_of_path p in
            let parts =
              match parts with "Stdlib" :: rest -> rest | parts -> parts
            in
            match parts with
            | m :: _ :: _ when List.mem m parallel_modules ->
              let line = e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum in
              let key = (file, line) in
              if parts = [ "Atomic"; "get" ] then
                Hashtbl.replace acc.r_benign_par key ()
              else Hashtbl.replace acc.r_other_par key ()
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.Tast_iterator.structure it u.Cmt_load.u_structure;
  acc

let of_units units =
  List.fold_left (fun acc u -> scan_unit u acc) (empty ()) units

(* ----------------------------- refine ----------------------------- *)

let drop_reason t (f : Rules.finding) =
  match f.Rules.rule with
  | "sema-domain-parallel" ->
    let key = (f.Rules.file, f.Rules.line) in
    if Hashtbl.mem t.r_benign_par key && not (Hashtbl.mem t.r_other_par key) then
      Some "benign Atomic.get read"
    else None
  | _ -> None

let refine t findings =
  List.partition (fun f -> drop_reason t f = None) findings
