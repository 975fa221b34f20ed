module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Schema = Graql_storage.Schema
module Dtype = Graql_storage.Dtype

type ctx = {
  meta : Meta.t;
  params : (string, Dtype.t) Hashtbl.t;
  (* Result tables whose schema we could not infer statically: referencing
     them is legal, but column checks are skipped. *)
  untyped : (string, unit) Hashtbl.t;
  mutable diags : Diag.t list;
}

let err ctx loc fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <- { Diag.severity = Error; loc; message } :: ctx.diags)
    fmt

let warn ctx loc fmt =
  Printf.ksprintf
    (fun message ->
      ctx.diags <- { Diag.severity = Warning; loc; message } :: ctx.diags)
    fmt

let dtype_of_lit = function
  | Ast.L_int _ -> Some Dtype.Int
  | Ast.L_float _ -> Some Dtype.Float
  | Ast.L_string _ -> Some (Dtype.Varchar 255)
  | Ast.L_bool _ -> Some Dtype.Bool
  | Ast.L_null -> None

(* May two types meet in a comparison? Strings compare with dates (date
   literals are written as strings); numerics cross-compare; the rest must
   match. The paper's canonical error — date vs float — lands here. *)
let comparable a b =
  Dtype.compatible a b
  || (Dtype.is_numeric a && Dtype.is_numeric b)
  || (match (a, b) with
     | Dtype.Varchar _, Dtype.Date | Dtype.Date, Dtype.Varchar _ -> true
     | _ -> false)

(** Attribute resolution outcome. *)
type resolution =
  | R_type of Dtype.t
  | R_unknown  (** legal reference whose type we cannot pin down *)
  | R_error of string

type resolver = qual:string option -> attr:string -> Loc.t -> resolution

let schema_lookup schema attr =
  Option.map (Schema.col_dtype schema) (Schema.find schema attr)

(* ------------------------------------------------------------------ *)
(* Expression typing                                                   *)

let rec infer ctx (resolve : resolver) expr : Dtype.t option =
  match expr with
  | Ast.E_lit (l, _) -> dtype_of_lit l
  | Ast.E_param (name, _) -> Hashtbl.find_opt ctx.params name
  | Ast.E_attr (qual, attr, loc) -> (
      match resolve ~qual ~attr loc with
      | R_type t -> Some t
      | R_unknown -> None
      | R_error msg ->
          err ctx loc "%s" msg;
          None)
  | Ast.E_binop (op, a, b, loc) -> infer_binop ctx resolve op a b loc
  | Ast.E_unop (Ast.Not, a, loc) ->
      (match infer ctx resolve a with
      | Some Dtype.Bool | None -> ()
      | Some t -> err ctx loc "operand of 'not' must be boolean, got %s" (Dtype.to_string t));
      Some Dtype.Bool
  | Ast.E_unop (Ast.Neg, a, loc) -> (
      match infer ctx resolve a with
      | Some (Dtype.Int | Dtype.Float) as t -> t
      | None -> None
      | Some t ->
          err ctx loc "cannot negate a %s" (Dtype.to_string t);
          None)
  | Ast.E_is_null (a, _, _) ->
      ignore (infer ctx resolve a);
      Some Dtype.Bool
  | Ast.E_call (f, _, loc) ->
      err ctx loc "aggregate/function %s() is not allowed in this context" f;
      None

and infer_binop ctx resolve op a b loc =
  let ta = infer ctx resolve a and tb = infer ctx resolve b in
  match op with
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      (match (ta, tb) with
      | Some x, Some y when not (comparable x y) ->
          err ctx loc "cannot compare %s with %s" (Dtype.to_string x)
            (Dtype.to_string y)
      | _ -> ());
      Some Dtype.Bool
  | Ast.And | Ast.Or ->
      let check = function
        | Some Dtype.Bool | None -> ()
        | Some t ->
            err ctx loc "boolean operator applied to %s" (Dtype.to_string t)
      in
      check ta;
      check tb;
      Some Dtype.Bool
  | Ast.Like ->
      (match ta with
      | Some (Dtype.Varchar _) | None -> ()
      | Some t -> err ctx loc "like requires a string, got %s" (Dtype.to_string t));
      (match tb with
      | Some (Dtype.Varchar _) | None -> ()
      | Some t -> err ctx loc "like pattern must be a string, got %s" (Dtype.to_string t));
      Some Dtype.Bool
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
      match (ta, tb) with
      | Some Dtype.Int, Some Dtype.Int -> Some Dtype.Int
      | Some (Dtype.Int | Dtype.Float), Some (Dtype.Int | Dtype.Float) ->
          Some Dtype.Float
      | Some Dtype.Date, Some Dtype.Int when op = Ast.Add || op = Ast.Sub ->
          Some Dtype.Date
      | Some Dtype.Date, Some Dtype.Date when op = Ast.Sub -> Some Dtype.Int
      | Some (Dtype.Varchar _), Some (Dtype.Varchar _) when op = Ast.Add ->
          Some (Dtype.Varchar 255)
      | None, _ | _, None -> None
      | Some x, Some y ->
          err ctx loc "invalid arithmetic between %s and %s" (Dtype.to_string x)
            (Dtype.to_string y);
          None)

(* ------------------------------------------------------------------ *)
(* Statement checking                                                  *)

let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Feasibility: contradiction detection (Sec. III-A -- "will the query
   result be empty?"). Interval analysis over the top-level conjuncts
   that compare one attribute with a constant. *)

type interval = {
  mutable lo : float;
  mutable lo_strict : bool;
  mutable hi : float;
  mutable hi_strict : bool;
  mutable eq_str : string option;
  mutable conflict : bool;
}

let fresh_interval () =
  {
    lo = neg_infinity;
    lo_strict = false;
    hi = infinity;
    hi_strict = false;
    eq_str = None;
    conflict = false;
  }

let interval_empty iv =
  iv.conflict
  || iv.lo > iv.hi
  || (iv.lo = iv.hi && (iv.lo_strict || iv.hi_strict))

let numeric_of_lit = function
  | Ast.L_int i -> Some (float_of_int i)
  | Ast.L_float f -> Some f
  | _ -> None

let check_satisfiable ctx loc expr =
  let tbl : (string, interval) Hashtbl.t = Hashtbl.create 4 in
  let interval key =
    match Hashtbl.find_opt tbl key with
    | Some iv -> iv
    | None ->
        let iv = fresh_interval () in
        Hashtbl.add tbl key iv;
        iv
  in
  let key q a =
    (match q with Some q -> norm q ^ "." | None -> "") ^ norm a
  in
  let bound op key_str value =
    let iv = interval key_str in
    (match op with
    | Ast.Eq ->
        if value > iv.lo || (value = iv.lo && not iv.lo_strict) then begin
          iv.lo <- value;
          iv.lo_strict <- false
        end
        else iv.conflict <- true;
        if value < iv.hi || (value = iv.hi && not iv.hi_strict) then begin
          iv.hi <- value;
          iv.hi_strict <- false
        end
        else iv.conflict <- true
    | Ast.Gt ->
        if value >= iv.lo then begin
          iv.lo <- value;
          iv.lo_strict <- true
        end
    | Ast.Ge ->
        if value > iv.lo then begin
          iv.lo <- value;
          iv.lo_strict <- false
        end
    | Ast.Lt ->
        if value <= iv.hi then begin
          iv.hi <- value;
          iv.hi_strict <- true
        end
    | Ast.Le ->
        if value < iv.hi then begin
          iv.hi <- value;
          iv.hi_strict <- false
        end
    | _ -> ())
  in
  let flip = function
    | Ast.Gt -> Ast.Lt
    | Ast.Ge -> Ast.Le
    | Ast.Lt -> Ast.Gt
    | Ast.Le -> Ast.Ge
    | op -> op
  in
  let rec conjs = function
    | Ast.E_binop (Ast.And, a, b, _) -> conjs a @ conjs b
    | e -> [ e ]
  in
  List.iter
    (fun conj ->
      match conj with
      | Ast.E_binop (op, Ast.E_attr (q, a, _), Ast.E_lit (l, _), _) -> (
          match (numeric_of_lit l, op, l) with
          | Some v, _, _ -> bound op (key q a) v
          | None, Ast.Eq, Ast.L_string s -> (
              let iv = interval (key q a) in
              match iv.eq_str with
              | Some other when other <> s -> iv.conflict <- true
              | _ -> iv.eq_str <- Some s)
          | _ -> ())
      | Ast.E_binop (op, Ast.E_lit (l, _), Ast.E_attr (q, a, _), _) -> (
          match numeric_of_lit l with
          | Some v -> bound (flip op) (key q a) v
          | None -> ())
      | _ -> ())
    (conjs expr);
  Hashtbl.iter
    (fun key_str iv ->
      if interval_empty iv then
        warn ctx loc
          "conditions on %S are contradictory: this query will return an \
           empty result"
          key_str)
    tbl

let table_resolver ?(alias : string option) name schema : resolver =
 fun ~qual ~attr _loc ->
  let qual_ok =
    match qual with
    | None -> true
    | Some q ->
        norm q = norm name
        || (match alias with Some a -> norm q = norm a | None -> false)
  in
  if not qual_ok then
    R_error
      (Printf.sprintf "unknown qualifier %S (expected %s)"
         (Option.get qual) name)
  else
    match schema_lookup schema attr with
    | Some t -> R_type t
    | None ->
        R_error (Printf.sprintf "table %s has no column %S" name attr)

let check_create_table ctx ~name ~cols ~loc =
  if Meta.mem ctx.meta name then err ctx loc "entity %S already declared" name
  else begin
    match
      Schema.make
        (List.map (fun c -> { Schema.name = c.Ast.cd_name; dtype = c.Ast.cd_type }) cols)
    with
    | schema -> Meta.add_table ctx.meta name schema
    | exception Invalid_argument msg -> err ctx loc "%s" msg
  end

let check_create_vertex ctx ~name ~key ~from ~where ~loc =
  if Meta.mem ctx.meta name then begin
    err ctx loc "entity %S already declared" name
  end
  else
    match Meta.find ctx.meta from with
    | None -> err ctx loc "vertex %s: no such table %S" name from
    | Some (Meta.M_vertex _ | Meta.M_edge _ | Meta.M_subgraph _) ->
        err ctx loc
          "vertex %s: %S is not a table (a table name is required here)" name
          from
    | Some (Meta.M_table (schema, _)) ->
        let key_cols =
          List.filter_map
            (fun k ->
              match Schema.find schema k with
              | Some i -> Some { Schema.name = k; dtype = Schema.col_dtype schema i }
              | None ->
                  err ctx loc "vertex %s: table %s has no column %S" name from k;
                  None)
            key
        in
        Option.iter
          (fun e ->
            ignore (infer ctx (table_resolver from schema) e);
            check_satisfiable ctx loc e)
          where;
        if List.length key_cols = List.length key then
          Meta.add_vertex ctx.meta
            {
              Meta.vm_name = name;
              vm_key = Schema.make key_cols;
              vm_attrs = schema;
              vm_source = from;
              vm_size = None;
            }

let edge_resolver ctx ~src_ep ~dst_ep ~(src : Meta.vertex_meta option)
    ~(dst : Meta.vertex_meta option) ~assoc : resolver =
  (* Resolution order for qualified names: endpoint aliases, endpoint type
     names, the associated table, then any other table in the catalog (the
     export edge of Fig. 4 joins through several tables). *)
  fun ~qual ~attr loc ->
    ignore loc;
    match qual with
    | Some q ->
        let try_endpoint ep vm =
          let matches =
            norm q = norm ep.Ast.ve_type
            || (match ep.Ast.ve_alias with Some a -> norm q = norm a | None -> false)
          in
          if not matches then None
          else
            match vm with
            | Some vm -> (
                match schema_lookup vm.Meta.vm_attrs attr with
                | Some t -> Some (R_type t)
                | None ->
                    Some
                      (R_error
                         (Printf.sprintf "vertex type %s has no attribute %S"
                            vm.Meta.vm_name attr)))
            | None -> Some R_unknown
        in
        let try_assoc () =
          match assoc with
          | Some (aname, schema) when norm q = norm aname ->
              Some
                (match schema_lookup schema attr with
                | Some t -> R_type t
                | None ->
                    R_error
                      (Printf.sprintf "table %s has no column %S" aname attr))
          | _ -> None
        in
        let try_catalog () =
          match Meta.find_table ctx.meta q with
          | Some schema ->
              Some
                (match schema_lookup schema attr with
                | Some t -> R_type t
                | None ->
                    R_error (Printf.sprintf "table %s has no column %S" q attr))
          | None -> None
        in
        let first_some l =
          List.fold_left
            (fun acc f -> match acc with Some _ -> acc | None -> f ())
            None l
        in
        (match
           first_some
             [
               (fun () -> try_endpoint src_ep src);
               (fun () -> try_endpoint dst_ep dst);
               try_assoc;
               try_catalog;
             ]
         with
        | Some r -> r
        | None -> R_error (Printf.sprintf "unknown qualifier %S" q))
    | None -> (
        (* Unqualified: search assoc then endpoints; ambiguity is an error. *)
        let hits = ref [] in
        (match assoc with
        | Some (aname, schema) ->
            (match schema_lookup schema attr with
            | Some t -> hits := (aname, t) :: !hits
            | None -> ())
        | None -> ());
        List.iter
          (fun vm_opt ->
            match vm_opt with
            | Some vm -> (
                match schema_lookup vm.Meta.vm_attrs attr with
                | Some t -> hits := (vm.Meta.vm_name, t) :: !hits
                | None -> ())
            | None -> ())
          [ src; dst ];
        match !hits with
        | [ (_, t) ] -> R_type t
        | [] ->
            if src = None || dst = None then R_unknown
            else R_error (Printf.sprintf "unknown attribute %S" attr)
        | _ -> R_error (Printf.sprintf "ambiguous attribute %S (qualify it)" attr))

let check_create_edge ctx ~name ~(src_ep : Ast.vertex_endpoint)
    ~(dst_ep : Ast.vertex_endpoint) ~from ~where ~loc =
  if Meta.mem ctx.meta name then err ctx loc "entity %S already declared" name
  else begin
    let endpoint_meta role ep =
      match Meta.find ctx.meta ep.Ast.ve_type with
      | Some (Meta.M_vertex vm) -> Some vm
      | Some _ ->
          err ctx loc
            "edge %s: %s endpoint %S is not a vertex type (a vertex type is \
             required here)"
            name role ep.Ast.ve_type;
          None
      | None ->
          err ctx loc "edge %s: no such vertex type %S" name ep.Ast.ve_type;
          None
    in
    let src = endpoint_meta "source" src_ep in
    let dst = endpoint_meta "target" dst_ep in
    let assoc =
      match from with
      | None -> None
      | Some tname -> (
          match Meta.find ctx.meta tname with
          | Some (Meta.M_table (schema, _)) -> Some (tname, schema)
          | Some _ ->
              err ctx loc
                "edge %s: %S is not a table (a table name is required here)"
                name tname;
              None
          | None ->
              err ctx loc "edge %s: no such table %S" name tname;
              None)
    in
    Option.iter
      (fun e ->
        ignore (infer ctx (edge_resolver ctx ~src_ep ~dst_ep ~src ~dst ~assoc) e))
      where;
    match (src, dst) with
    | Some _, Some _ ->
        let em_attrs = Option.map snd assoc in
        Meta.add_edge ctx.meta
          {
            Meta.em_name = name;
            em_src = src_ep.Ast.ve_type;
            em_dst = dst_ep.Ast.ve_type;
            em_attrs;
            em_size = None;
          }
    | _ -> ()
  end

let check_ingest ctx ~table ~loc =
  match Meta.find ctx.meta table with
  | Some (Meta.M_table _) -> ()
  | Some _ ->
      err ctx loc "ingest: %S is not a table (a table name is required here)"
        table
  | None -> err ctx loc "ingest: no such table %S" table

(* ------------------------------------------------------------------ *)
(* Graph query checking                                                *)

(* What we know about a step while walking a path. *)
type step_info = {
  si_vtype : string option; (* None for unresolved [ ] *)
  si_attrs : Schema.t option;
}

type label_info = { li_step : step_info; li_elementwise : bool; li_is_edge : bool }

type path_env = {
  mutable labels : (string * label_info) list;
  (* step types seen, for validating select targets *)
  mutable step_types : string list;
}


let step_resolver ctx env (current : step_info) : resolver =
 fun ~qual ~attr loc ->
  ignore loc;
  let lookup_in info what =
    match info.si_attrs with
    | None -> R_unknown
    | Some schema -> (
        match schema_lookup schema attr with
        | Some t -> R_type t
        | None -> R_error (Printf.sprintf "%s has no attribute %S" what attr))
  in
  match qual with
  | None -> lookup_in current "this step"
  | Some q -> (
      match List.assoc_opt (norm q) (List.map (fun (k, v) -> (norm k, v)) env.labels) with
      | Some li -> lookup_in li.li_step (Printf.sprintf "label %s" q)
      | None -> (
          match current.si_vtype with
          | Some vt when norm vt = norm q -> lookup_in current vt
          | _ ->
              (* Attributes from previous steps are reachable only via
                 labels (Sec. II-B2). *)
              if Option.is_some (Meta.find_vertex ctx.meta q) then
                R_error
                  (Printf.sprintf
                     "cannot reference step %S here: label it with 'def %s:' \
                      and use the label"
                     q q)
              else R_error (Printf.sprintf "unknown qualifier %S" q)))

let check_vstep ctx env (v : Ast.vstep) : step_info =
  let info =
    match v.Ast.v_kind with
    | Ast.V_any -> { si_vtype = None; si_attrs = None }
    | Ast.V_named n -> (
        match List.assoc_opt (norm n) (List.map (fun (k, i) -> (norm k, i)) env.labels) with
        | Some li when li.li_is_edge ->
            err ctx v.Ast.v_loc
              "%S labels an edge; edge labels can be referenced in \
               conditions and select targets but not as path steps"
              n;
            { si_vtype = None; si_attrs = None }
        | Some li -> li.li_step
        | None -> (
            match Meta.find ctx.meta n with
            | Some (Meta.M_vertex vm) ->
                (match vm.Meta.vm_size with
                | Some 0 ->
                    warn ctx v.Ast.v_loc
                      "vertex type %s has no instances: this query will \
                       return an empty result"
                      n
                | _ -> ());
                { si_vtype = Some n; si_attrs = Some vm.Meta.vm_attrs }
            | Some _ ->
                err ctx v.Ast.v_loc
                  "%S is not a vertex type (a vertex type is required in a \
                   path step)"
                  n;
                { si_vtype = None; si_attrs = None }
            | None ->
                err ctx v.Ast.v_loc "no such vertex type or label %S" n;
                { si_vtype = None; si_attrs = None }))
    | Ast.V_seeded (sg, vt) ->
        (if not (Meta.mem ctx.meta sg || Hashtbl.mem ctx.untyped (norm sg)) then
           err ctx v.Ast.v_loc "no such subgraph %S" sg);
        (match Meta.find ctx.meta vt with
        | Some (Meta.M_vertex vm) -> { si_vtype = Some vt; si_attrs = Some vm.Meta.vm_attrs }
        | Some _ ->
            err ctx v.Ast.v_loc "%S is not a vertex type" vt;
            { si_vtype = None; si_attrs = None }
        | None ->
            err ctx v.Ast.v_loc "no such vertex type %S" vt;
            { si_vtype = None; si_attrs = None })
  in
  (match v.Ast.v_cond with
  | Some cond ->
      if v.Ast.v_kind = Ast.V_any then
        err ctx v.Ast.v_loc
          "conditional expressions are not allowed on type-matching [ ] steps"
      else begin
        ignore (infer ctx (step_resolver ctx env info) cond);
        check_satisfiable ctx v.Ast.v_loc cond
      end
  | None -> ());
  (match v.Ast.v_label with
  | Some label ->
      let name = Ast.label_name label in
      if List.mem_assoc (norm name) (List.map (fun (k, i) -> (norm k, i)) env.labels)
      then err ctx v.Ast.v_loc "label %S is already defined" name
      else if Meta.mem ctx.meta name then
        err ctx v.Ast.v_loc "label %S shadows a declared entity" name
      else
        env.labels <-
          ( name,
            {
              li_step = info;
              li_elementwise = (match label with Ast.Each_label _ -> true | _ -> false);
              li_is_edge = false;
            } )
          :: env.labels
  | None -> ());
  (match info.si_vtype with
  | Some t when not (List.mem (norm t) (List.map norm env.step_types)) ->
      env.step_types <- t :: env.step_types
  | _ -> ());
  info

let register_edge_label ctx env (e : Ast.estep) ~attrs =
  match e.Ast.e_label with
  | None -> ()
  | Some label ->
      let name = Ast.label_name label in
      if List.mem_assoc (norm name) (List.map (fun (k, i) -> (norm k, i)) env.labels)
      then err ctx e.Ast.e_loc "label %S is already defined" name
      else if Meta.mem ctx.meta name then
        err ctx e.Ast.e_loc "label %S shadows a declared entity" name
      else
        env.labels <-
          ( name,
            {
              li_step = { si_vtype = None; si_attrs = attrs };
              li_elementwise =
                (match label with Ast.Each_label _ -> true | _ -> false);
              li_is_edge = true;
            } )
          :: env.labels

let register_estep_label ctx env (e : Ast.estep) =
  match e.Ast.e_kind with
  | Ast.E_any -> register_edge_label ctx env e ~attrs:None
  | Ast.E_named n ->
      register_edge_label ctx env e
        ~attrs:
          (match Meta.find_edge ctx.meta n with
          | Some em -> em.Meta.em_attrs
          | None -> None)

let check_estep ctx env (e : Ast.estep) ~(left : step_info) ~(right : step_info) =
  match e.Ast.e_kind with
  | Ast.E_any ->
      (match e.Ast.e_cond with
      | Some _ ->
          err ctx e.Ast.e_loc
            "conditional expressions are not allowed on type-matching [ ] steps"
      | None -> ());
      (* Feasibility: if both endpoint types are known, at least one edge
         type must connect them in the traversal direction. *)
      (match (left.si_vtype, right.si_vtype) with
      | Some lv, Some rv ->
          let src, dst = match e.Ast.e_dir with Ast.Out -> (lv, rv) | Ast.In -> (rv, lv) in
          if Meta.edges_between ctx.meta ~src ~dst = [] then
            warn ctx e.Ast.e_loc
              "no edge type connects %s to %s: this step matches nothing" src
              dst
      | _ -> ())
  | Ast.E_named n -> (
      match Meta.find ctx.meta n with
      | Some (Meta.M_edge em) ->
          (match em.Meta.em_size with
          | Some 0 ->
              warn ctx e.Ast.e_loc
                "edge type %s has no instances: this query will return an \
                 empty result"
                n
          | _ -> ());
          let check_endpoint side expected actual =
            match actual with
            | Some vt when norm vt <> norm expected ->
                err ctx e.Ast.e_loc
                  "edge %s %s vertices of type %s, but the path has %s here" n
                  side expected vt
            | _ -> ()
          in
          (match e.Ast.e_dir with
          | Ast.Out ->
              check_endpoint "leaves from" em.Meta.em_src left.si_vtype;
              check_endpoint "arrives at" em.Meta.em_dst right.si_vtype
          | Ast.In ->
              check_endpoint "leaves from" em.Meta.em_src right.si_vtype;
              check_endpoint "arrives at" em.Meta.em_dst left.si_vtype);
          (match e.Ast.e_cond with
          | Some cond ->
              let info =
                {
                  si_vtype = Some n;
                  si_attrs = em.Meta.em_attrs;
                }
              in
              ignore (infer ctx (step_resolver ctx env info) cond)
          | None -> ())
      | Some _ ->
          err ctx e.Ast.e_loc
            "%S is not an edge type (an edge type is required between vertex \
             steps)"
            n
      | None -> err ctx e.Ast.e_loc "no such edge type %S" n)

let rec check_path ctx env (p : Ast.path) : step_info =
  let head = check_vstep ctx env p.Ast.head in
  List.fold_left
    (fun left seg ->
      match seg with
      | Ast.Seg_step (e, v) ->
          (* The arriving edge's label is visible to the landing vertex's
             condition, so register it first. *)
          register_estep_label ctx env e;
          let right = check_vstep ctx env v in
          check_estep ctx env e ~left ~right;
          right
      | Ast.Seg_regex (body, op, loc) ->
          (match op with
          | Ast.Rx_count n when n < 0 ->
              err ctx loc "regex repetition count must be non-negative"
          | Ast.Rx_count 0 ->
              warn ctx loc "{0} repetition: this group never traverses"
          | _ -> ());
          List.fold_left
            (fun left ((e : Ast.estep), (v : Ast.vstep)) ->
              (if e.Ast.e_label <> None then
                 err ctx e.Ast.e_loc
                   "labels are not supported inside path regexes");
              (if v.Ast.v_label <> None then
                 err ctx v.Ast.v_loc
                   "labels are not supported inside path regexes");
              (match v.Ast.v_kind with
              | Ast.V_seeded _ ->
                  err ctx v.Ast.v_loc
                    "subgraph seeds are not allowed inside regexes"
              | _ -> ());
              let right = check_vstep ctx env v in
              check_estep ctx env e ~left ~right;
              right)
            left body)
    head p.Ast.segments

and check_multipath ctx env = function
  | Ast.M_path p -> ignore (check_path ctx env p)
  | Ast.M_and (a, b) ->
      (* and-composition is only well defined when the operands share a
         label (Sec. II-B3): collect left labels first. *)
      check_multipath ctx env a;
      let before = List.map fst env.labels in
      check_multipath ctx env b;
      ignore before
  | Ast.M_or (a, b) ->
      check_multipath ctx env a;
      check_multipath ctx env b

(* Does an and-composition share at least one label between operands? *)
let rec collect_refs acc (p : Ast.multipath) =
  match p with
  | Ast.M_path { head; segments } ->
      let add_v acc (v : Ast.vstep) =
        match v.Ast.v_kind with Ast.V_named n -> n :: acc | _ -> acc
      in
      let acc = add_v acc head in
      List.fold_left
        (fun acc -> function
          | Ast.Seg_step (_, v) -> add_v acc v
          | Ast.Seg_regex (body, _, _) ->
              List.fold_left (fun acc (_, v) -> add_v acc v) acc body)
        acc segments
  | Ast.M_and (a, b) | Ast.M_or (a, b) -> collect_refs (collect_refs acc a) b

let rec collect_labels acc (p : Ast.multipath) =
  match p with
  | Ast.M_path { head; segments } ->
      let add_v acc (v : Ast.vstep) =
        match v.Ast.v_label with
        | Some l -> Ast.label_name l :: acc
        | None -> acc
      in
      let add_e acc (e : Ast.estep) =
        match e.Ast.e_label with
        | Some l -> Ast.label_name l :: acc
        | None -> acc
      in
      let acc = add_v acc head in
      List.fold_left
        (fun acc -> function
          | Ast.Seg_step (e, v) -> add_v (add_e acc e) v
          | Ast.Seg_regex (body, _, _) ->
              List.fold_left
                (fun acc (e, v) -> add_v (add_e acc e) v)
                acc body)
        acc segments
  | Ast.M_and (a, b) | Ast.M_or (a, b) -> collect_labels (collect_labels acc a) b

let check_and_sharing ctx loc (mp : Ast.multipath) =
  let rec go = function
    | Ast.M_and (a, b) ->
        let left_labels = List.map norm (collect_labels [] a) in
        let right_refs = List.map norm (collect_refs [] b) in
        let right_labels = List.map norm (collect_labels [] b) in
        let left_refs = List.map norm (collect_refs [] a) in
        let shared =
          List.exists (fun l -> List.mem l right_refs) left_labels
          || List.exists (fun l -> List.mem l left_refs) right_labels
        in
        if not shared then
          err ctx loc
            "'and' composition of path queries requires a shared label \
             between the operands";
        go a;
        go b
    | Ast.M_or (a, b) ->
        go a;
        go b
    | Ast.M_path _ -> ()
  in
  go mp

let target_schema ctx env (targets : Ast.target list) ~loc :
    Schema.col list option =
  (* Infer the output schema of a graph select. None = statically unknown
     (e.g. select * over a path with variant steps). *)
  let resolve ~qual ~attr l : resolution =
    ignore l;
    match qual with
    | Some q -> (
        match
          List.assoc_opt (norm q) (List.map (fun (k, v) -> (norm k, v)) env.labels)
        with
        | Some li -> (
            match li.li_step.si_attrs with
            | Some schema -> (
                match schema_lookup schema attr with
                | Some t -> R_type t
                | None ->
                    R_error (Printf.sprintf "label %s has no attribute %S" q attr))
            | None -> R_unknown)
        | None -> (
            match Meta.find_vertex ctx.meta q with
            | Some vm ->
                if not (List.mem (norm q) (List.map norm env.step_types)) then
                  R_error
                    (Printf.sprintf "%S does not appear as a step in this query" q)
                else (
                  match schema_lookup vm.Meta.vm_attrs attr with
                  | Some t -> R_type t
                  | None ->
                      R_error
                        (Printf.sprintf "vertex type %s has no attribute %S" q
                           attr))
            | None -> R_error (Printf.sprintf "unknown qualifier %S" q)))
    | None ->
        R_error
          (Printf.sprintf
             "attribute %S must be qualified by a step type or label in a \
              graph select"
             attr)
  in
  let cols =
    List.map
      (fun t ->
        match t with
        | Ast.T_star -> None
        | Ast.T_expr (e, alias) -> (
            let ty = infer ctx resolve e in
            let name =
              match (alias, e) with
              | Some a, _ -> Some a
              | None, Ast.E_attr (_, a, _) -> Some a
              | None, _ -> None
            in
            match (name, ty) with
            | Some n, Some ty -> Some { Schema.name = n; dtype = ty }
            | Some n, None -> Some { Schema.name = n; dtype = Dtype.Varchar 255 }
            | None, _ ->
                err ctx loc "computed select target needs an 'as' alias";
                None))
      targets
  in
  if List.for_all Option.is_some cols then Some (List.map Option.get cols)
  else None

let register_result ctx (into : Ast.into) (schema : Schema.col list option) =
  match into with
  | Ast.Into_nothing -> ()
  | Ast.Into_subgraph n ->
      if Meta.mem ctx.meta n then () (* overwrite allowed for results *)
      else Meta.add_subgraph ctx.meta n []
  | Ast.Into_table n -> (
      if Meta.mem ctx.meta n || Hashtbl.mem ctx.untyped (norm n) then ()
      else
        match schema with
        | Some cols -> (
            match Schema.make cols with
            | schema -> Meta.add_table ctx.meta n schema
            | exception Invalid_argument _ -> Hashtbl.replace ctx.untyped (norm n) ())
        | None -> Hashtbl.replace ctx.untyped (norm n) ())

let check_select_graph ctx (sg : Ast.select_graph) =
  let env = { labels = []; step_types = [] } in
  check_multipath ctx env sg.Ast.sg_path;
  check_and_sharing ctx sg.Ast.sg_loc sg.Ast.sg_path;
  (* Targets: for "into subgraph", bare names must be step types or
     labels; for table output, qualified attributes. *)
  let is_subgraph_output =
    match sg.Ast.sg_into with Ast.Into_subgraph _ -> true | _ -> false
  in
  let schema =
    if is_subgraph_output then begin
      List.iter
        (fun t ->
          match t with
          | Ast.T_star -> ()
          | Ast.T_expr (Ast.E_attr (None, name, l), None) ->
              let is_label =
                List.mem_assoc (norm name)
                  (List.map (fun (k, v) -> (norm k, v)) env.labels)
              in
              let is_step = List.mem (norm name) (List.map norm env.step_types) in
              if not (is_label || is_step) then
                err ctx l
                  "%S is not a step of this query (subgraph targets must \
                   name steps or labels)"
                  name
          | Ast.T_expr (e, _) ->
              err ctx (Ast.expr_loc e)
                "subgraph output selects steps or labels, not expressions")
        sg.Ast.sg_targets;
      None
    end
    else target_schema ctx env sg.Ast.sg_targets ~loc:sg.Ast.sg_loc
  in
  register_result ctx sg.Ast.sg_into schema

(* ------------------------------------------------------------------ *)
(* Table select checking                                               *)

let check_select_table ctx (st : Ast.select_table) =
  let sources =
    match st.Ast.st_from with
    | Ast.From_table (n, a) -> [ (n, a) ]
    | Ast.From_join (srcs, _) -> srcs
  in
  let resolved =
    List.filter_map
      (fun (n, alias) ->
        if Hashtbl.mem ctx.untyped (norm n) then None
        else
          match Meta.find ctx.meta n with
          | Some (Meta.M_table (schema, size)) ->
              (match size with
              | Some 0 ->
                  warn ctx st.Ast.st_loc
                    "table %s is empty: this query will return no rows" n
              | _ -> ());
              Some (n, alias, schema)
          | Some _ ->
              err ctx st.Ast.st_loc
                "%S is not a table (a table name is required in 'from \
                 table')"
                n;
              None
          | None ->
              err ctx st.Ast.st_loc "no such table %S" n;
              None)
      sources
  in
  let any_untyped =
    List.exists (fun (n, _) -> Hashtbl.mem ctx.untyped (norm n)) sources
  in
  let resolve : resolver =
   fun ~qual ~attr _loc ->
    if any_untyped then R_unknown
    else
      match qual with
      | Some q -> (
          match
            List.find_opt
              (fun (n, alias, _) ->
                norm n = norm q
                || (match alias with Some a -> norm a = norm q | None -> false))
              resolved
          with
          | Some (n, _, schema) -> (
              match schema_lookup schema attr with
              | Some t -> R_type t
              | None -> R_error (Printf.sprintf "table %s has no column %S" n attr))
          | None -> (
              (* Flattened path-result tables (Fig. 13) name columns
                 "Step.attr"; accept the dotted spelling as a column. *)
              let dotted = q ^ "." ^ attr in
              let hits =
                List.filter_map
                  (fun (_, _, schema) -> schema_lookup schema dotted)
                  resolved
              in
              match hits with
              | [ t ] -> R_type t
              | _ -> R_error (Printf.sprintf "unknown qualifier %S" q)))
      | None -> (
          let hits =
            List.filter_map
              (fun (n, _, schema) ->
                Option.map (fun t -> (n, t)) (schema_lookup schema attr))
              resolved
          in
          match hits with
          | [ (_, t) ] -> R_type t
          | [] -> R_error (Printf.sprintf "unknown column %S" attr)
          | _ -> R_error (Printf.sprintf "ambiguous column %S (qualify it)" attr))
  in
  Option.iter
    (fun e ->
      ignore (infer ctx resolve e);
      check_satisfiable ctx st.Ast.st_loc e)
    st.Ast.st_where;
  (match st.Ast.st_from with
  | Ast.From_join (_, Some e) ->
      ignore (infer ctx resolve e);
      check_satisfiable ctx st.Ast.st_loc e
  | _ -> ());
  (* Group-by columns must resolve. *)
  List.iter
    (fun (q, c) ->
      match resolve ~qual:q ~attr:c st.Ast.st_loc with
      | R_error msg -> err ctx st.Ast.st_loc "group by: %s" msg
      | _ -> ())
    st.Ast.st_group_by;
  let grouped = st.Ast.st_group_by <> [] in
  (* Target checking; aggregates allowed here. *)
  let known_aggs = [ "count"; "sum"; "avg"; "min"; "max" ] in
  let check_agg_call f args loc =
    if not (List.mem f known_aggs) then
      err ctx loc "unknown aggregate function %S" f
    else
      match args with
      | [ Ast.A_star ] ->
          if f <> "count" then err ctx loc "%s(*) is not valid; only count(*)" f
      | [ Ast.A_expr e ] -> ignore (infer ctx resolve e)
      | _ -> err ctx loc "aggregate %s takes exactly one argument" f
  in
  let target_cols =
    List.filter_map
      (fun t ->
        match t with
        | Ast.T_star -> None
        | Ast.T_expr (e, alias) -> (
            let ty =
              match e with
              | Ast.E_call (f, args, l) ->
                  check_agg_call f args l;
                  Some
                    (match f with
                    | "count" -> Dtype.Int
                    | "avg" -> Dtype.Float
                    | _ -> (
                        match args with
                        | [ Ast.A_expr inner ] -> (
                            match infer ctx resolve inner with
                            | Some t -> t
                            | None -> Dtype.Float)
                        | _ -> Dtype.Float))
              | _ ->
                  (if grouped then
                     (* Non-aggregate targets must be group keys. *)
                     match e with
                     | Ast.E_attr (q, a, l) ->
                         let in_keys =
                           List.exists
                             (fun (gq, gc) ->
                               norm gc = norm a
                               && (match (gq, q) with
                                  | None, _ | _, None -> true
                                  | Some x, Some y -> norm x = norm y))
                             st.Ast.st_group_by
                         in
                         if not in_keys then
                           err ctx l
                             "column %S must appear in group by or inside an \
                              aggregate"
                             a
                     | _ ->
                         err ctx (Ast.expr_loc e)
                           "non-aggregate select target with group by must \
                            be a grouping column");
                  infer ctx resolve e
            in
            let name =
              match (alias, e) with
              | Some a, _ -> Some a
              | None, Ast.E_attr (_, a, _) -> Some a
              | None, Ast.E_call (f, _, _) -> Some f
              | None, _ -> None
            in
            match name with
            | Some n ->
                Some
                  {
                    Schema.name = n;
                    dtype = (match ty with Some t -> t | None -> Dtype.Varchar 255);
                  }
            | None ->
                err ctx st.Ast.st_loc "computed select target needs an 'as' alias";
                None))
      st.Ast.st_targets
  in
  (* order by may reference target aliases. *)
  let order_resolve : resolver =
   fun ~qual ~attr loc ->
    match qual with
    | None
      when List.exists (fun c -> norm c.Schema.name = norm attr) target_cols ->
        R_type
          (List.find (fun c -> norm c.Schema.name = norm attr) target_cols)
            .Schema.dtype
    | _ -> resolve ~qual ~attr loc
  in
  List.iter (fun (e, _) -> ignore (infer ctx order_resolve e)) st.Ast.st_order_by;
  (match st.Ast.st_top with
  | Some n when n <= 0 -> err ctx st.Ast.st_loc "top %d: count must be positive" n
  | _ -> ());
  (match st.Ast.st_into with
  | Ast.Into_subgraph _ ->
      err ctx st.Ast.st_loc "a table select cannot produce a subgraph"
  | _ -> ());
  let has_star = List.exists (fun t -> t = Ast.T_star) st.Ast.st_targets in
  let schema =
    if has_star then
      match resolved with
      | [ (_, _, schema) ] when List.length sources = 1 ->
          Some (Array.to_list (Schema.cols schema))
      | _ -> None
    else Some target_cols
  in
  register_result ctx st.Ast.st_into schema

(* ------------------------------------------------------------------ *)

let check_stmt_inner ctx stmt =
  match stmt with
  | Ast.Create_table { ct_name; ct_cols; ct_loc } ->
      check_create_table ctx ~name:ct_name ~cols:ct_cols ~loc:ct_loc
  | Ast.Create_vertex { cv_name; cv_key; cv_from; cv_where; cv_loc } ->
      check_create_vertex ctx ~name:cv_name ~key:cv_key ~from:cv_from
        ~where:cv_where ~loc:cv_loc
  | Ast.Create_edge { ce_name; ce_src; ce_dst; ce_from; ce_where; ce_loc } ->
      check_create_edge ctx ~name:ce_name ~src_ep:ce_src ~dst_ep:ce_dst
        ~from:ce_from ~where:ce_where ~loc:ce_loc
  | Ast.Ingest { ing_table; ing_loc; _ } ->
      check_ingest ctx ~table:ing_table ~loc:ing_loc
  | Ast.Set_param { sp_name; sp_value; _ } -> (
      match dtype_of_lit sp_value with
      | Some t -> Hashtbl.replace ctx.params sp_name t
      | None -> Hashtbl.remove ctx.params sp_name)
  | Ast.Select_graph sg -> check_select_graph ctx sg
  | Ast.Select_table st -> check_select_table ctx st

(* The checker registers a script's own definitions as it goes; it does
   so in a copy, since the caller's [meta] may be a shared snapshot. *)
let make_ctx ?(params = []) meta =
  let ctx =
    {
      meta = Meta.copy meta;
      params = Hashtbl.create 8;
      untyped = Hashtbl.create 8;
      diags = [];
    }
  in
  List.iter
    (fun (name, lit) ->
      match dtype_of_lit lit with
      | Some t -> Hashtbl.replace ctx.params name t
      | None -> ())
    params;
  ctx

let check_script ?params meta script =
  let ctx = make_ctx ?params meta in
  List.iter (check_stmt_inner ctx) script;
  List.rev ctx.diags

let check_stmt ?params meta stmt =
  let ctx = make_ctx ?params meta in
  check_stmt_inner ctx stmt;
  List.rev ctx.diags
