module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Table = Graql_storage.Table
module Column = Graql_storage.Column
module Schema = Graql_storage.Schema
module Value = Graql_storage.Value
module Dtype = Graql_storage.Dtype
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Subgraph = Graql_graph.Subgraph
module Bitset = Graql_util.Bitset
module Int_vec = Graql_util.Int_vec
module Row_expr = Graql_relational.Row_expr

exception Result_error of Loc.t * string

let error loc fmt = Printf.ksprintf (fun msg -> raise (Result_error (loc, msg))) fmt
let norm = String.lowercase_ascii

type bindings = Path_exec.relation Path_exec.outcome

(* ------------------------------------------------------------------ *)
(* Subgraph capture                                                    *)

let slot_matches_name (s : Path_exec.slot) name =
  (match s.Path_exec.s_label with Some l -> norm l = norm name | None -> false)
  || match s.Path_exec.s_type_name with
     | Some t -> norm t = norm name
     | None -> false

(* One membership bitset per vertex / edge type, allocated on first use:
   a type appears in the subgraph only if some cell of it was captured. *)
let type_bits sizes =
  let bits = Array.make (Array.length sizes) None in
  let get t =
    match bits.(t) with
    | Some b -> b
    | None ->
        let b = Bitset.create sizes.(t) in
        bits.(t) <- Some b;
        b
  in
  (bits, get, fun cell -> Bitset.set (get (Pack.tidx cell)) (Pack.id cell))

let to_subgraph ~name ~targets ~loc (res : bindings) =
  let u = res.Path_exec.universe in
  let star = List.exists (fun t -> t = Ast.T_star) targets in
  let wanted_names =
    List.filter_map
      (function
        | Ast.T_star -> None
        | Ast.T_expr (Ast.E_attr (None, n, _), None) -> Some n
        | Ast.T_expr (e, _) ->
            error (Ast.expr_loc e)
              "subgraph output selects steps or labels, not expressions")
      targets
  in
  let vbits, _, mark_v = type_bits (Array.map Vset.size u.Pack.vtypes) in
  let ebits, ebits_of, mark_e = type_bits (Array.map Eset.size u.Pack.etypes) in
  List.iter
    (fun (rel : Path_exec.relation) ->
      Array.iteri
        (fun i (slot : Path_exec.slot) ->
          if star || List.exists (slot_matches_name slot) wanted_names then
            match slot.Path_exec.s_kind with
            | `V -> Int_vec.iter mark_v rel.Path_exec.cols.(i)
            | `E -> if star then Int_vec.iter mark_e rel.Path_exec.cols.(i))
        rel.Path_exec.layout)
    res.Path_exec.comps;
  if star then
    Array.iteri
      (fun t regex ->
        Option.iter (Bitset.union_into (ebits_of t)) regex)
      res.Path_exec.regex_edges;
  ignore loc;
  (* The subgraph takes over the bitsets built here. *)
  let sg = Subgraph.empty name in
  Array.iteri
    (fun t bits ->
      Option.iter
        (Subgraph.add_vertices sg ~vtype:(Vset.name u.Pack.vtypes.(t)))
        bits)
    vbits;
  Array.iteri
    (fun t bits ->
      Option.iter
        (Subgraph.add_edges sg ~etype:(Eset.name u.Pack.etypes.(t)))
        bits)
    ebits;
  sg

(* ------------------------------------------------------------------ *)
(* Table capture                                                       *)

(* Attribute of a packed cell, by name; Null when absent. *)
let cell_attr u (kind : [ `V | `E ]) cell attr =
  match kind with
  | `V -> (
      let vset = u.Pack.vtypes.(Pack.tidx cell) in
      match Schema.find (Vset.attr_schema vset) attr with
      | Some col -> Vset.attr vset ~vertex:(Pack.id cell) ~col
      | None -> Value.Null)
  | `E -> (
      let eset = u.Pack.etypes.(Pack.tidx cell) in
      match Eset.attr_table eset with
      | Some table -> (
          match Schema.find (Table.schema table) attr with
          | Some col ->
              Table.get table ~row:(Eset.attr_row eset (Pack.id cell)) ~col
          | None -> Value.Null)
      | None -> Value.Null)

(* Positions of slots matching a qualifier; labels take precedence. *)
let resolve_qualifier (rel : Path_exec.relation) qual loc =
  let slots = rel.Path_exec.layout in
  let by_label =
    List.filter
      (fun i ->
        match slots.(i).Path_exec.s_label with
        | Some l -> norm l = norm qual
        | None -> false)
      (List.init (Array.length slots) Fun.id)
  in
  match by_label with
  | [ i ] -> i
  | _ :: _ -> error loc "label %S is bound to several columns" qual
  | [] -> (
      let by_type =
        List.filter
          (fun i ->
            match slots.(i).Path_exec.s_type_name with
            | Some t -> norm t = norm qual
            | None -> false)
          (List.init (Array.length slots) Fun.id)
      in
      match by_type with
      | [ i ] -> i
      | [] -> error loc "%S does not name a step or label of this query" qual
      | _ ->
          error loc
            "%S appears at several steps; label the one you mean (def %s:)"
            qual qual)

(* The attribute table behind a single-typed slot, and the map from an
   entity id to its row there. Every cell of a slot with a declared type
   is of that type. *)
let slot_source u (slot : Path_exec.slot) =
  match (slot.Path_exec.s_kind, slot.Path_exec.s_type_name) with
  | `V, Some t -> (
      match Pack.vtype_index u t with
      | Some tidx ->
          let vset = u.Pack.vtypes.(tidx) in
          Some (Vset.attr_table vset, Vset.attr_row vset)
      | None -> None)
  | `E, Some t -> (
      match Pack.etype_index u t with
      | Some tidx -> (
          let eset = u.Pack.etypes.(tidx) in
          match Eset.attr_table eset with
          | Some table -> Some (table, Eset.attr_row eset)
          | None -> None)
      | None -> None)
  | _, None -> None

(* Static dtype of slot.attr when the slot is single-typed. *)
let slot_attr_dtype u (slot : Path_exec.slot) attr =
  match slot_source u slot with
  | Some (table, _) -> (
      let schema = Table.schema table in
      match Schema.find schema attr with
      | Some i -> Some (Schema.col_dtype schema i)
      | None -> None)
  | None -> None

(* Compile a target expression against a relation layout. Sources are
   (slot position, attr name) pairs resolved per row. *)
let compile_target u (rel : Path_exec.relation) ~params expr =
  let sources = ref [] in
  let nsources = ref 0 in
  let add src =
    sources := src :: !sources;
    incr nsources;
    !nsources - 1
  in
  let binder ~qual ~attr loc : Compile_expr.col_ref =
    match qual with
    | None ->
        raise
          (Compile_expr.Compile_error
             ( loc,
               Printf.sprintf
                 "attribute %S must be qualified by a step type or label" attr ))
    | Some q ->
        let pos = resolve_qualifier rel q loc in
        let dtype =
          match slot_attr_dtype u rel.Path_exec.layout.(pos) attr with
          | Some t -> t
          | None -> Dtype.Varchar 255
        in
        { Compile_expr.cr_index = add (pos, attr); cr_dtype = dtype }
  in
  let lowered = Compile_expr.compile ~params binder expr in
  let sources = Array.of_list (List.rev !sources) in
  fun row ->
    let get i =
      let pos, attr = sources.(i) in
      let slot = rel.Path_exec.layout.(pos) in
      cell_attr u slot.Path_exec.s_kind
        (Int_vec.unsafe_get rel.Path_exec.cols.(pos) row)
        attr
    in
    Row_expr.eval get lowered

(* How one output column is filled: gathered from an attribute column
   through its slot's row index, or evaluated row by row — the fallback
   for computed targets and for slots that mix entity types. *)
type fill =
  | Gather of { pos : int; attr_row : int -> int; src : Column.t }
  | Eval of (int -> Value.t)

(* Columns for [select *]: every slot, in display (s_step) order, expanded
   to its full attribute schema, prefixed by label or type name. *)
let star_columns u (rel : Path_exec.relation) loc =
  let slots = rel.Path_exec.layout in
  let order =
    List.sort
      (fun a b -> compare slots.(a).Path_exec.s_step slots.(b).Path_exec.s_step)
      (List.init (Array.length slots) Fun.id)
  in
  let used = Hashtbl.create 16 in
  let unique base =
    let rec go n =
      let candidate = if n = 0 then base else Printf.sprintf "%s%d" base (n + 1) in
      if Hashtbl.mem used (norm candidate) then go (n + 1)
      else begin
        Hashtbl.replace used (norm candidate) ();
        candidate
      end
    in
    go 0
  in
  List.concat_map
    (fun pos ->
      let slot = slots.(pos) in
      let display =
        match (slot.Path_exec.s_label, slot.Path_exec.s_type_name) with
        | Some l, _ -> l
        | None, Some t -> t
        | None, None ->
            error loc
              "select * into table is not supported over type-matching [ ] \
               steps; name the outputs instead"
      in
      if Option.is_none slot.Path_exec.s_type_name then
        error loc "select * over unnamed steps is not supported";
      let prefix = unique display in
      match slot_source u slot with
      | None -> []
      | Some (table, attr_row) ->
          let schema = Table.schema table in
          List.init (Schema.arity schema) (fun i ->
              ( {
                  Schema.name = prefix ^ "." ^ Schema.col_name schema i;
                  dtype = Schema.col_dtype schema i;
                },
                Gather { pos; attr_row; src = Table.column table i } )))
    order

let single_component ~loc (res : bindings) =
  match res.Path_exec.comps with
  | [ rel ] -> rel
  | [] -> error loc "query produced no result component"
  | _ ->
      error loc
        "'or' alternatives with different shapes cannot be captured into a \
         table; capture a subgraph instead"

let target_columns u rel ~params targets =
  List.map
    (function
      | Ast.T_star -> assert false
      | Ast.T_expr (e, alias) ->
          let cname =
            match (alias, e) with
            | Some a, _ -> a
            | None, Ast.E_attr (_, a, _) -> a
            | None, _ ->
                error (Ast.expr_loc e) "computed select target needs an 'as' alias"
          in
          let gathered =
            match e with
            | Ast.E_attr (Some q, a, l) -> (
                let pos = resolve_qualifier rel q l in
                match slot_source u rel.Path_exec.layout.(pos) with
                | Some (table, attr_row) ->
                    let schema = Table.schema table in
                    Option.map
                      (fun i ->
                        ( Schema.col_dtype schema i,
                          Gather { pos; attr_row; src = Table.column table i } ))
                      (Schema.find schema a)
                | None -> None)
            | _ -> None
          in
          let dtype, fill =
            match gathered with
            | Some g -> g
            | None -> (
                (* Computed targets and attributes of mixed-type slots have
                   no static type: evaluated per row into a varchar. *)
                try (Dtype.Varchar 255, Eval (compile_target u rel ~params e))
                with Compile_expr.Compile_error (l, msg) -> error l "%s" msg)
          in
          ({ Schema.name = cname; dtype }, fill))
    targets

let to_table ~name ~targets ~params ~loc (res : bindings) =
  let u = res.Path_exec.universe in
  let rel = single_component ~loc res in
  let specs =
    if List.exists (fun t -> t = Ast.T_star) targets then star_columns u rel loc
    else target_columns u rel ~params targets
  in
  let schema = Schema.make (List.map fst specs) in
  let n = Path_exec.nrows rel in
  (* Each gathered slot maps its cells to attribute-table rows once. *)
  let row_index = Hashtbl.create 4 in
  let rows_of pos attr_row =
    match Hashtbl.find_opt row_index pos with
    | Some rows -> rows
    | None ->
        let col = rel.Path_exec.cols.(pos) in
        let rows =
          Array.init n (fun i -> attr_row (Pack.id (Int_vec.unsafe_get col i)))
        in
        Hashtbl.replace row_index pos rows;
        rows
  in
  let columns =
    List.map
      (fun ({ Schema.name = cname; dtype }, fill) ->
        match fill with
        | Gather { pos; attr_row; src } ->
            let dst = Column.create_sized ~share_dict_of:src dtype n in
            Column.gather_into ~src ~rows:(rows_of pos attr_row) ~dst ~lo:0
              ~hi:n;
            Column.track_stats dst;
            dst
        | Eval eval ->
            let c = Column.create ~expected:n dtype in
            for r = 0 to n - 1 do
              try Column.append c (eval r)
              with Failure msg ->
                failwith (Printf.sprintf "table %s, column %s: %s" name cname msg)
            done;
            c)
      specs
  in
  Table.of_columns ~name schema (Array.of_list columns)
