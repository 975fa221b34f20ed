module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Table = Graql_storage.Table
module Schema = Graql_storage.Schema
module Value = Graql_storage.Value
module Dtype = Graql_storage.Dtype
module Row_expr = Graql_relational.Row_expr
module Relop = Graql_relational.Relop
module Join = Graql_relational.Join
module Builder = Graql_graph.Builder
module Graph_store = Graql_graph.Graph_store
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr
module Metrics = Graql_obs.Metrics
module Trace = Graql_obs.Trace

exception Ddl_error of Loc.t * string

let error loc fmt = Printf.ksprintf (fun msg -> raise (Ddl_error (loc, msg))) fmt
let norm = String.lowercase_ascii

let exec_create_table db ~name ~cols ~loc =
  let schema =
    try
      Schema.make
        (List.map (fun c -> { Schema.name = c.Ast.cd_name; dtype = c.Ast.cd_type }) cols)
    with Invalid_argument msg -> error loc "%s" msg
  in
  try Db.add_table db (Table.create ~name schema)
  with Failure msg -> error loc "%s" msg

let exec_create_vertex db vd = Db.add_vertex_def db vd
let exec_create_edge db ed = Db.add_edge_def db ed

(* ------------------------------------------------------------------ *)
(* Vertex building (Eq. 1)                                             *)

let table_binder table : Compile_expr.binder =
  let schema = Table.schema table in
  fun ~qual ~attr loc ->
    (match qual with
    | Some q when norm q <> norm (Table.name table) ->
        raise
          (Compile_expr.Compile_error
             (loc, Printf.sprintf "unknown qualifier %S" q))
    | _ -> ());
    match Schema.find schema attr with
    | Some i ->
        { Compile_expr.cr_index = i; cr_dtype = Schema.col_dtype schema i }
    | None ->
        raise
          (Compile_expr.Compile_error
             ( loc,
               Printf.sprintf "table %s has no column %S" (Table.name table)
                 attr ))

let params_of_db db name = Db.find_param db name

(* What Eq. 1 needs to key a vertex view's rows. *)
type vertex_plan = {
  vp_source : Table.t;
  vp_key_cols : int list;
  vp_cond : Row_expr.t option;
}

let plan_vertex db (vd : Db.vertex_def) =
  let source =
    match Db.find_table db vd.vd_from with
    | Some t -> t
    | None -> error Loc.dummy "vertex %s: no such table %s" vd.vd_name vd.vd_from
  in
  let schema = Table.schema source in
  let key_cols =
    List.map
      (fun k ->
        match Schema.find schema k with
        | Some i -> i
        | None ->
            error Loc.dummy "vertex %s: table %s has no column %S" vd.vd_name
              vd.vd_from k)
      vd.vd_key
  in
  let cond =
    Option.map
      (fun e ->
        try Compile_expr.compile ~params:(params_of_db db) (table_binder source) e
        with Compile_expr.Compile_error (loc, msg) ->
          error loc "vertex %s: %s" vd.vd_name msg)
      vd.vd_where
  in
  { vp_source = source; vp_key_cols = key_cols; vp_cond = cond }

(* ------------------------------------------------------------------ *)
(* Edge building (Eq. 2)                                               *)

(* A relation participating in the driving join. [rkey] is its canonical
   qualifier; endpoints also answer to their alias and type name. *)
type rel = { rkey : string; rtable : Table.t }

type endpoint = {
  ep_which : [ `Src | `Dst ];
  ep_vset : Vset.t;
  ep_quals : string list; (* normalized names this endpoint answers to *)
  ep_key_names : string list;
}

let endpoint_of store which (ve : Ast.vertex_endpoint) loc =
  let vset =
    match Graph_store.find_vset store ve.Ast.ve_type with
    | Some v -> v
    | None -> error loc "no such vertex type %S" ve.Ast.ve_type
  in
  let quals =
    norm ve.Ast.ve_type
    :: (match ve.Ast.ve_alias with Some a -> [ norm a ] | None -> [])
  in
  let key_names =
    Array.to_list
      (Array.map (fun c -> norm c.Schema.name) (Schema.cols (Vset.key_schema vset)))
  in
  { ep_which = which; ep_vset = vset; ep_quals = quals; ep_key_names = key_names }

(* Which endpoint does a qualifier refer to? When both endpoints share a
   type name and no alias disambiguates, qualifying by the bare type name
   is ambiguous. *)
let endpoint_for_qual ~src ~dst q =
  let q = norm q in
  let in_src = List.mem q src.ep_quals and in_dst = List.mem q dst.ep_quals in
  if in_src && in_dst then `Ambiguous
  else if in_src then `Endpoint src
  else if in_dst then `Endpoint dst
  else `No

(* References inside the where clause, shallow-classified. *)
let rec expr_attr_refs acc = function
  | Ast.E_attr (q, a, loc) -> (q, a, loc) :: acc
  | Ast.E_binop (_, x, y, _) -> expr_attr_refs (expr_attr_refs acc x) y
  | Ast.E_unop (_, x, _) | Ast.E_is_null (x, _, _) -> expr_attr_refs acc x
  | Ast.E_call (_, args, _) ->
      List.fold_left
        (fun acc -> function Ast.A_expr e -> expr_attr_refs acc e | Ast.A_star -> acc)
        acc args
  | Ast.E_lit _ | Ast.E_param _ -> acc

(* What Eq. 2 needs to turn an edge view's driving rows into edges. *)
type edge_plan = {
  xp_src : Vset.t;
  xp_dst : Vset.t;
  xp_driving : Table.t;
  xp_joined : bool; (* the driving relation is a join made for this build *)
  xp_src_key : int list;
  xp_dst_key : int list;
  xp_cond : Row_expr.t option;
  xp_dedupe : bool;
}

let plan_edge db store (ed : Db.edge_def) =
  let loc = Loc.dummy in
  let src = endpoint_of store `Src ed.ed_src loc in
  let dst = endpoint_of store `Dst ed.ed_dst loc in
  let conjuncts =
    match ed.ed_where with Some e -> Compile_expr.conjuncts e | None -> []
  in
  if conjuncts = [] && ed.ed_from = None then
    error loc "edge %s: a where clause (or an associated table) is required"
      ed.ed_name;
  (* --- classify attribute references --------------------------------- *)
  let resolve_qual q lc =
    match endpoint_for_qual ~src ~dst q with
    | `Ambiguous ->
        error lc
          "edge %s: qualifier %S matches both endpoints; use 'as' aliases"
          ed.ed_name q
    | `Endpoint ep -> `Endpoint ep
    | `No -> (
        match Db.find_table db q with
        | Some t -> `Table t
        | None -> error lc "edge %s: unknown qualifier %S" ed.ed_name q)
  in
  (* Inclusion pass: an endpoint joins the driving relation when the where
     clause touches one of its non-key attributes. *)
  let include_src = ref false and include_dst = ref false in
  let mark_endpoint ep attr =
    let is_key = List.mem (norm attr) ep.ep_key_names in
    if not is_key then
      match ep.ep_which with
      | `Src -> include_src := true
      | `Dst -> include_dst := true
  in
  List.iter
    (fun conj ->
      List.iter
        (fun (q, a, lc) ->
          match q with
          | Some q -> (
              match resolve_qual q lc with
              | `Endpoint ep -> mark_endpoint ep a
              | `Table _ -> ())
          | None -> (
              (* Unqualified: if it names an endpoint non-key attribute
                 uniquely, mark it; assoc columns win otherwise. *)
              let assoc_has =
                match ed.ed_from with
                | Some tn -> (
                    match Db.find_table db tn with
                    | Some t -> Schema.find (Table.schema t) a <> None
                    | None -> false)
                | None -> false
              in
              if not assoc_has then begin
                let src_has = Schema.find (Vset.attr_schema src.ep_vset) a <> None in
                let dst_has = Schema.find (Vset.attr_schema dst.ep_vset) a <> None in
                if src_has && not dst_has then mark_endpoint src a
                else if dst_has && not src_has then mark_endpoint dst a
                else if src_has && dst_has then
                  error lc "edge %s: ambiguous attribute %S (qualify it)"
                    ed.ed_name a
              end))
        (expr_attr_refs [] conj))
    conjuncts;
  (* Key-link atoms: Eq(endpoint.key, other.col). Collected as
     (endpoint, key name, other side qualifier/attr). *)
  let as_attr = function Ast.E_attr (q, a, lc) -> Some (q, a, lc) | _ -> None in
  let is_endpoint_key q a lc =
    match q with
    | None -> None
    | Some q -> (
        match endpoint_for_qual ~src ~dst q with
        | `Endpoint ep when List.mem (norm a) ep.ep_key_names -> Some ep
        | `Endpoint _ | `No -> None
        | `Ambiguous ->
            error lc "edge %s: qualifier %S matches both endpoints" ed.ed_name q)
  in
  (* Relations included in the driving join, in first-use order. *)
  let rels : rel list ref = ref [] in
  let add_rel rkey rtable =
    if not (List.exists (fun r -> r.rkey = rkey) !rels) then
      rels := !rels @ [ { rkey; rtable } ]
  in
  (match ed.ed_from with
  | Some tn -> (
      match Db.find_table db tn with
      | Some t -> add_rel (norm tn) t
      | None -> error loc "edge %s: no such table %S" ed.ed_name tn)
  | None -> ());
  let endpoint_rel ep = List.hd ep.ep_quals in
  if !include_src then add_rel (endpoint_rel src) (Vset.attr_table src.ep_vset);
  if !include_dst then add_rel (endpoint_rel dst) (Vset.attr_table dst.ep_vset);
  (* Any other catalog tables referenced by qualifier join in too. *)
  List.iter
    (fun conj ->
      List.iter
        (fun (q, _, lc) ->
          match q with
          | Some q -> (
              match resolve_qual q lc with
              | `Table t -> add_rel (norm q) t
              | `Endpoint _ -> ())
          | None -> ())
        (expr_attr_refs [] conj))
    conjuncts;
  (* Classify conjuncts into key links, join atoms and residuals. A key
     link feeds an *unincluded* endpoint's key from a relation column. *)
  let included ep =
    match ep.ep_which with `Src -> !include_src | `Dst -> !include_dst
  in
  let key_links = ref [] (* (endpoint, key name, rel qualifier, attr) *) in
  let join_atoms = ref [] (* (qual1, attr1, qual2, attr2, loc) *) in
  let residuals = ref [] in
  let classify conj =
    match conj with
    | Ast.E_binop (Ast.Eq, a, b, lc) -> (
        match (as_attr a, as_attr b) with
        | Some (qa, aa, la), Some (qb, ab, lb) -> (
            let epa = is_endpoint_key qa aa la
            and epb = is_endpoint_key qb ab lb in
            match (epa, epb) with
            | Some ep, None when not (included ep) ->
                key_links := (ep, norm aa, qb, ab, lb) :: !key_links
            | None, Some ep when not (included ep) ->
                key_links := (ep, norm ab, qa, aa, la) :: !key_links
            | Some ep1, Some ep2 when not (included ep1) && not (included ep2) ->
                (* Both sides are unincluded endpoint keys (A.id = B.id):
                   include the source endpoint and link the other from it. *)
                let to_include, linked, lattr, oattr, olc =
                  if ep1.ep_which = `Src then (ep1, ep2, norm ab, aa, la)
                  else (ep2, ep1, norm aa, ab, lb)
                in
                (match to_include.ep_which with
                | `Src -> include_src := true
                | `Dst -> include_dst := true);
                add_rel (endpoint_rel to_include) (Vset.attr_table to_include.ep_vset);
                key_links :=
                  (linked, lattr, Some (endpoint_rel to_include), oattr, olc)
                  :: !key_links
            | _ ->
                (* At least one side lives in an included relation: a join
                   atom between relations (or a residual filter if both
                   sides land in the same relation). *)
                join_atoms := (qa, aa, qb, ab, lc) :: !join_atoms)
        | _ -> residuals := conj :: !residuals)
    | _ -> residuals := conj :: !residuals
  in
  List.iter classify conjuncts;
  let key_links = List.rev !key_links
  and join_atoms = List.rev !join_atoms
  and residuals = List.rev !residuals in
  (* If nothing was included at all, drive from the source endpoint. *)
  if !rels = [] then begin
    include_src := true;
    add_rel (endpoint_rel src) (Vset.attr_table src.ep_vset)
  end;
  let rels = !rels in
  (* --- resolve a (qual, attr) to (rel, col) -------------------------- *)
  let rel_for_qual q lc =
    let q = norm q in
    (* Endpoint aliases map to the endpoint's canonical rel key. *)
    let q =
      match endpoint_for_qual ~src ~dst q with
      | `Endpoint ep -> endpoint_rel ep
      | `No | `Ambiguous -> q
    in
    match List.find_opt (fun r -> r.rkey = q) rels with
    | Some r -> r
    | None -> error lc "edge %s: %S is not part of the driving join" ed.ed_name q
  in
  let resolve_col q a lc =
    match q with
    | Some q -> (
        let r = rel_for_qual q lc in
        match Schema.find (Table.schema r.rtable) a with
        | Some i -> (r.rkey, i)
        | None ->
            error lc "edge %s: %s has no column %S" ed.ed_name r.rkey a)
    | None -> (
        let hits =
          List.filter_map
            (fun r ->
              Option.map (fun i -> (r.rkey, i)) (Schema.find (Table.schema r.rtable) a))
            rels
        in
        match hits with
        | [ hit ] -> hit
        | [] -> error lc "edge %s: unknown column %S" ed.ed_name a
        | _ -> error lc "edge %s: ambiguous column %S (qualify it)" ed.ed_name a)
  in
  (* --- left-deep join ------------------------------------------------ *)
  let atoms_resolved =
    List.map
      (fun (qa, aa, qb, ab, lc) -> (resolve_col qa aa lc, resolve_col qb ab lc, lc))
      join_atoms
  in
  let joined = ref [ (List.hd rels).rkey ] in
  let offsets = Hashtbl.create 8 in
  Hashtbl.replace offsets (List.hd rels).rkey 0;
  let driving = ref (List.hd rels).rtable in
  let remaining = ref (List.tl rels) in
  while !remaining <> [] do
    (* Pick the next relation connected to the joined set by >=1 atoms. *)
    let pick =
      List.find_opt
        (fun r ->
          List.exists
            (fun ((rk1, _), (rk2, _), _) ->
              (rk1 = r.rkey && List.mem rk2 !joined)
              || (rk2 = r.rkey && List.mem rk1 !joined))
            atoms_resolved)
        !remaining
    in
    match pick with
    | None ->
        error loc
          "edge %s: where clause does not connect all referenced tables into \
           one join"
          ed.ed_name
    | Some r ->
        let on =
          List.filter_map
            (fun ((rk1, c1), (rk2, c2), _) ->
              if rk1 = r.rkey && List.mem rk2 !joined then
                Some (Hashtbl.find offsets rk2 + c2, c1)
              else if rk2 = r.rkey && List.mem rk1 !joined then
                Some (Hashtbl.find offsets rk1 + c1, c2)
              else None)
            atoms_resolved
        in
        let base = Table.arity !driving in
        driving :=
          Join.hash_join ?pool:(Db.pool db) ~name:(ed.ed_name ^ "_drv")
            ~left:!driving ~right:r.rtable ~on ();
        Hashtbl.replace offsets r.rkey base;
        joined := r.rkey :: !joined;
        remaining := List.filter (fun x -> x.rkey <> r.rkey) !remaining
  done;
  let driving = !driving in
  (* Atoms fully inside one relation act as residual filters; they were
     classified as join atoms above, so re-apply any whose two sides landed
     in the same relation. *)
  let same_rel_filters =
    List.filter_map
      (fun ((rk1, c1), (rk2, c2), _) ->
        if rk1 = rk2 then
          Some
            (Row_expr.Cmp
               ( Row_expr.Eq,
                 Row_expr.Col (Hashtbl.find offsets rk1 + c1),
                 Row_expr.Col (Hashtbl.find offsets rk2 + c2) ))
        else None)
      atoms_resolved
  in
  (* --- residual condition -------------------------------------------- *)
  let driving_binder : Compile_expr.binder =
   fun ~qual ~attr lc ->
    let rkey, col = resolve_col qual attr lc in
    let idx = Hashtbl.find offsets rkey + col in
    {
      Compile_expr.cr_index = idx;
      cr_dtype = Schema.col_dtype (Table.schema driving) idx;
    }
  in
  let residual_exprs =
    List.map
      (fun conj ->
        try Compile_expr.compile ~params:(params_of_db db) driving_binder conj
        with Compile_expr.Compile_error (lc, msg) ->
          error lc "edge %s: %s" ed.ed_name msg)
      residuals
    @ same_rel_filters
  in
  let cond =
    match residual_exprs with
    | [] -> None
    | e :: rest -> Some (List.fold_left (fun a b -> Row_expr.And (a, b)) e rest)
  in
  (* --- endpoint key source columns ----------------------------------- *)
  let key_source ep =
    if included ep then
      (* The endpoint's own relation is in the join: its key columns are
         its attr-table columns. *)
      let base = Hashtbl.find offsets (endpoint_rel ep) in
      let schema = Vset.attr_schema ep.ep_vset in
      List.map
        (fun kname ->
          match Schema.find schema kname with
          | Some i -> base + i
          | None ->
              error loc "edge %s: endpoint lost key column %S" ed.ed_name kname)
        ep.ep_key_names
    else
      List.map
        (fun kname ->
          match
            List.find_opt
              (fun (lep, lname, _, _, _) ->
                lep.ep_which = ep.ep_which && lname = kname)
              key_links
          with
          | Some (_, _, q, a, lc) ->
              let rkey, col = resolve_col q a lc in
              Hashtbl.find offsets rkey + col
          | None ->
              error loc
                "edge %s: the where clause never determines key %S of the %s \
                 endpoint"
                ed.ed_name kname
                (match ep.ep_which with `Src -> "source" | `Dst -> "target"))
        ep.ep_key_names
  in
  {
    xp_src = src.ep_vset;
    xp_dst = dst.ep_vset;
    xp_driving = driving;
    xp_joined = List.length rels > 1;
    xp_src_key = key_source src;
    xp_dst_key = key_source dst;
    xp_cond = cond;
    xp_dedupe =
      (not (Vset.one_to_one src.ep_vset)) || not (Vset.one_to_one dst.ep_vset);
  }

(* Tables an edge view reads: the endpoints' source tables, the assoc
   table, and any catalog tables named as qualifiers in the where clause
   (the Fig. 4 multi-way joins). Used for selective rebuilds. *)
let edge_deps db (ed : Db.edge_def) =
  let vertex_source vt =
    List.find_map
      (fun (vd : Db.vertex_def) ->
        if norm vd.Db.vd_name = norm vt then Some vd.Db.vd_from else None)
      (Db.vertex_defs db)
  in
  let base =
    List.filter_map Fun.id
      [
        vertex_source ed.ed_src.Ast.ve_type;
        vertex_source ed.ed_dst.Ast.ve_type;
        ed.ed_from;
      ]
  in
  let quals =
    match ed.ed_where with
    | None -> []
    | Some w ->
        List.concat_map
          (fun conj ->
            List.filter_map
              (fun (q, _, _) ->
                match q with
                | Some q when Db.find_table db q <> None -> Some q
                | _ -> None)
              (expr_attr_refs [] conj))
          (Compile_expr.conjuncts w)
  in
  List.sort_uniq compare (List.map norm (base @ quals))

(* ------------------------------------------------------------------ *)
(* View maintenance                                                    *)

(* A view is reused when nothing it reads has changed, extended with the
   appended rows when every table it reads has only grown (Builder's
   extend_* functions), and otherwise built again from row 0 — which is
   the same extension run from the view over no rows. DESIGN.md §5. *)

let m_appends =
  Metrics.counter "graph.view_appends"
    ~help:"Graph views extended with appended rows"

let m_full_builds =
  Metrics.counter "graph.view_full_builds"
    ~help:"Graph views built from row 0"

let fingerprint db tables where : Db.fingerprint =
  {
    Db.fp_deps =
      List.filter_map
        (fun name ->
          Option.map
            (fun t ->
              {
                Db.dep_table = norm name;
                dep_physical = t;
                dep_rows = Table.nrows t;
              })
            (Db.find_table db name))
        tables;
    fp_params = List.map (fun p -> (p, Db.find_param db p)) (Db.where_params where);
  }

let same_deps (prev : Db.fingerprint) (cur : Db.fingerprint) ok =
  prev.fp_params = cur.fp_params
  && List.length prev.fp_deps = List.length cur.fp_deps
  && List.for_all2
       (fun (a : Db.dep) (b : Db.dep) ->
         a.dep_table = b.dep_table && a.dep_physical == b.dep_physical && ok a b)
       prev.fp_deps cur.fp_deps

(* Nothing the view reads has changed: tables only grow, so the same
   table at the same row count holds the same rows. *)
let unchanged prev cur =
  same_deps prev cur (fun a b -> a.Db.dep_rows = b.Db.dep_rows)

(* The view's tables are the same objects and have only grown. *)
let appended prev cur =
  same_deps prev cur (fun a b -> b.Db.dep_rows >= a.Db.dep_rows)

type status = Reused | Extended | Built

let view_span ~name ~mode ~rows f =
  Trace.with_span ~cat:"graph"
    ~args:[ ("view", name); ("mode", mode); ("rows", string_of_int rows) ]
    "graph.view" f

let build_graph db =
  let store = Graph_store.create () in
  let pool = Db.pool db in
  let prev = Db.last_built db in
  let prev_fps = Db.view_fingerprints db in
  let fps = ref [] in
  let prev_view find name =
    match (prev, List.assoc_opt (norm name) prev_fps) with
    | Some pg, Some fp -> Option.map (fun v -> (v, fp)) (find pg name)
    | _ -> None
  in
  let vstatus = Hashtbl.create 16 in
  List.iter
    (fun (vd : Db.vertex_def) ->
      let name = vd.Db.vd_name in
      let fp = fingerprint db [ vd.Db.vd_from ] vd.Db.vd_where in
      let status, vset =
        match prev_view Graph_store.find_vset name with
        | Some (v, pfp) when unchanged pfp fp -> (Reused, v)
        | prior -> (
            let { vp_source = source; vp_key_cols = key_cols; vp_cond = cond } =
              plan_vertex db vd
            in
            let extended =
              match prior with
              | Some (base, pfp) when appended pfp fp ->
                  view_span ~name ~mode:"append"
                    ~rows:(Table.nrows source - Vset.rows_seen base)
                    (fun () -> Builder.extend_vertices ?pool base ~key_cols ?cond ())
              | _ -> None
            in
            match extended with
            | Some v ->
                Metrics.incr m_appends;
                (Extended, v)
            | None ->
                Metrics.incr m_full_builds;
                ( Built,
                  view_span ~name ~mode:"full" ~rows:(Table.nrows source)
                    (fun () ->
                      Builder.build_vertices ?pool ~name ~source ~key_cols ?cond ())
                ))
      in
      Graph_store.add_vset store vset;
      Hashtbl.replace vstatus (norm name) status;
      fps := (norm name, fp) :: !fps)
    (Db.vertex_defs db);
  (* Edge ids index into their endpoints' ids, which only an endpoint
     built from row 0 may have renumbered. *)
  let endpoint_built vt =
    Option.value ~default:Built (Hashtbl.find_opt vstatus (norm vt)) = Built
  in
  let endpoint_reused vt = Hashtbl.find_opt vstatus (norm vt) = Some Reused in
  List.iter
    (fun (ed : Db.edge_def) ->
      let name = ed.Db.ed_name in
      let src_type = ed.ed_src.Ast.ve_type and dst_type = ed.ed_dst.Ast.ve_type in
      let fp = fingerprint db (edge_deps db ed) ed.ed_where in
      let eset =
        match prev_view Graph_store.find_eset name with
        | Some (e, pfp)
          when unchanged pfp fp && endpoint_reused src_type
               && endpoint_reused dst_type ->
            e
        | prior -> (
            let plan = plan_edge db store ed in
            (* An old row dropped for a key that named no vertex may name
               one once that endpoint has grown; appending never revisits
               it. *)
            let missed_and_grew base =
              (Eset.dropped_src base > 0
              && Vset.size plan.xp_src > Csr.nvertices (Eset.forward base))
              || Eset.dropped_dst base > 0
                 && Vset.size plan.xp_dst > Csr.nvertices (Eset.reverse base)
            in
            match prior with
            | Some (base, pfp)
              when appended pfp fp && (not plan.xp_joined)
                   && Eset.driving base == plan.xp_driving
                   && Eset.dedupe base = plan.xp_dedupe
                   && (not (endpoint_built src_type))
                   && (not (endpoint_built dst_type))
                   && not (missed_and_grew base) ->
                Metrics.incr m_appends;
                view_span ~name ~mode:"append"
                  ~rows:(Table.nrows plan.xp_driving - Eset.rows_seen base)
                  (fun () ->
                    Builder.extend_edges ?pool base ~src:plan.xp_src
                      ~dst:plan.xp_dst ~src_key:plan.xp_src_key
                      ~dst_key:plan.xp_dst_key ?cond:plan.xp_cond ())
            | _ ->
                Metrics.incr m_full_builds;
                view_span ~name ~mode:"full" ~rows:(Table.nrows plan.xp_driving)
                  (fun () ->
                    Builder.build_edges ?pool ~name ~src:plan.xp_src
                      ~dst:plan.xp_dst ~driving:plan.xp_driving
                      ~src_key:plan.xp_src_key ~dst_key:plan.xp_dst_key
                      ?cond:plan.xp_cond ~dedupe:plan.xp_dedupe ()))
      in
      Graph_store.add_eset store eset;
      fps := (norm name, fp) :: !fps)
    (Db.edge_defs db);
  Db.set_view_fingerprints db (List.rev !fps);
  store

let install db = Db.set_builder db build_graph
