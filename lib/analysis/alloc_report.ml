(* The allocation analysis of clove-check: hot-region allocation
   findings with a call-chain witness from a dispatch root, and
   cold-branch demotion.  Suppressions, the baseline and the JSON
   output are [Findings]'s, applied by the driver.

   Each finding's identity is ("alloc-<kind>", file, "node: desc") —
   line-free, so moving code inside a function does not churn the
   committed budget; a *new* identity means a new allocation on the
   hot path and fails the build.  Several sites with the same identity
   (say, two closure literals in one function) merge into one finding
   carrying the first site's line and a count.

   Cold-guarded sites (audited-run branches, audited error paths,
   always-raising branches) are reported under [alloc-cold] with the
   span's reason as their suppression — visible in the report, outside
   the budget. *)

type t = {
  a_findings : Findings.t list;
  a_roots : (string * string) list;
  a_absent_roots : string list;
  a_hot_nodes : int;
  a_sites_total : int;
  a_sites_cold : int;
}

let render_witness chain (al : Race_extract.alloc_site) =
  let hop (id, site) =
    match site with
    | None -> id
    | Some (s : Race_extract.site) ->
      Printf.sprintf "%s:%d calls %s" s.Race_extract.s_file
        s.Race_extract.s_line id
  in
  List.map hop chain
  @ [
      Printf.sprintf "%s:%d %s" al.Race_extract.al_site.Race_extract.s_file
        al.Race_extract.al_site.Race_extract.s_line al.Race_extract.al_desc;
    ]

let findings (l : Race_extract.linked) (hot : Alloc_extract.hot) spans =
  let sites_total = ref 0 in
  let sites_cold = ref 0 in
  (* merged per identity key; first (lowest-line) site wins, later
     duplicates only bump the count *)
  let acc : (string, Findings.t * int) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (n : Race_extract.node) ->
      if (not n.Race_extract.n_is_init) && Alloc_extract.member hot n.n_id then
        let chain =
          match Alloc_extract.witness_to hot n.Race_extract.n_id with
          | Some c -> c
          | None -> []
        in
        let root = match chain with (r, _) :: _ -> r | [] -> n.n_id in
        List.iter
          (fun (al : Race_extract.alloc_site) ->
            incr sites_total;
            let file = al.Race_extract.al_site.Race_extract.s_file in
            let line = al.Race_extract.al_site.Race_extract.s_line in
            let slug = Race_extract.alloc_kind_slug al.Race_extract.al_kind in
            let target =
              n.Race_extract.n_id ^ ": " ^ al.Race_extract.al_desc
            in
            let rule, reason =
              match Alloc_extract.cold_reason spans file line with
              | Some r ->
                incr sites_cold;
                ("alloc-cold", Some ("cold: " ^ r))
              | None -> ("alloc-" ^ slug, None)
            in
            let f =
              {
                Findings.rule;
                file;
                line;
                target;
                message =
                  Printf.sprintf "%s allocates on the hot path (root %s)"
                    al.Race_extract.al_desc root;
                witness = render_witness chain al;
                extra =
                  [
                    ("kind", Json_out.String slug);
                    ("node", Json_out.String n.Race_extract.n_id);
                  ];
                reason;
              }
            in
            let key = Findings.key f in
            match Hashtbl.find_opt acc key with
            | None ->
              Hashtbl.replace acc key (f, 1);
              order := key :: !order
            | Some (f0, c) ->
              let f0 = if line < f0.Findings.line then f else f0 in
              Hashtbl.replace acc key (f0, c + 1))
          (List.rev n.Race_extract.n_allocs))
    l.Race_extract.l_nodes;
  let fs =
    List.rev_map
      (fun key ->
        let f, c =
          match Hashtbl.find_opt acc key with
          | Some fc -> fc
          | None -> assert false (* every key in [order] was inserted *)
        in
        if c = 1 then f
        else
          {
            f with
            Findings.extra =
              f.Findings.extra @ [ ("count", Json_out.Int c) ];
          })
      !order
  in
  (Findings.sort fs, !sites_total, !sites_cold)

let run ~cold (l : Race_extract.linked) =
  let hot = Alloc_extract.hot_region l in
  let fs, sites_total, sites_cold = findings l hot cold in
  {
    a_findings = fs;
    a_roots = hot.Alloc_extract.h_roots;
    a_absent_roots = hot.Alloc_extract.h_absent;
    a_hot_nodes = Hashtbl.length hot.Alloc_extract.h_member;
    a_sites_total = sites_total;
    a_sites_cold = sites_cold;
  }

let summary_json r =
  Json_out.(
    Obj
      [
        ( "roots",
          List
            (List.map
               (fun (id, origin) ->
                 Obj [ ("node", String id); ("origin", String origin) ])
               r.a_roots) );
        ("hot_nodes", Int r.a_hot_nodes);
        ("dispatch_roots", Int (List.length r.a_roots));
        ("absent_roots", List (List.map (fun id -> String id) r.a_absent_roots));
        ("sites_total", Int r.a_sites_total);
        ("sites_cold", Int r.a_sites_cold);
      ])
