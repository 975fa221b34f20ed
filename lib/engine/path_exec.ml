module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr
module Subgraph = Graql_graph.Subgraph
module Bitset = Graql_util.Bitset
module Int_vec = Graql_util.Int_vec
module Pool = Graql_parallel.Domain_pool
module Metrics = Graql_obs.Metrics
module Trace = Graql_obs.Trace
module Profile = Graql_obs.Profile

type mode = Keep_all | Keep_minimal of string list

type slot = {
  s_kind : [ `V | `E ];
  s_label : string option;
  s_type_name : string option;
  s_step : int;
}

type component = { slots : slot array; rows : int array array }
type relation = { layout : slot array; cols : Int_vec.t array }

type 'c outcome = {
  comps : 'c list;
  universe : Pack.universe;
  regex_edges : Bitset.t option array;
}

type result = component outcome

exception Exec_error of Loc.t * string

let error loc fmt = Printf.ksprintf (fun msg -> raise (Exec_error (loc, msg))) fmt
let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Planned paths: the execution form after direction choice. Reversing a
   regex segment cannot be a pure AST rewrite — the vertex preceding the
   regex becomes a filter on the reversed evaluation's endpoints — so the
   planner emits these explicit steps, shared with EXPLAIN. *)

type xregex = {
  xr_body : (Ast.estep * Ast.vstep) list;
  xr_op : Ast.rx_op;
  xr_loc : Loc.t;
  xr_reversed : bool;
  xr_exit : Ast.vstep option;
      (* reversed only: the forward pre-regex vertex, applied to endpoints *)
}

type xstep = X_step of Ast.estep * Ast.vstep | X_regex of xregex

type path_plan = {
  px_head : Ast.vstep;
  px_steps : xstep list;
  px_reversed : bool;
}

(* ------------------------------------------------------------------ *)
(* The binding relation                                                *)

(* One column of packed cells per slot, all of one length. A step never
   copies rows: it computes the parent row of each output row (plus the
   new columns), narrows that candidate set with selection vectors, and
   gathers every earlier column once through the surviving parents. *)

let par_threshold = 2048

let nrows_of cols = if Array.length cols = 0 then 0 else Int_vec.length cols.(0)

let gather_cols cols idx = Array.map (fun c -> Int_vec.gather c idx) cols

(* Positions [i] of [0, n) where [keep i] holds, ascending. Chunk-parallel
   on big inputs; chunk results merge in order, so the selection is the
   same at any domain count. *)
let select_positions ?pool n keep =
  match pool with
  | Some pool when n >= par_threshold ->
      Pool.parallel_reduce pool
        ~init:(fun () -> Int_vec.create ())
        ~body:(fun out i -> if keep i then Int_vec.push out i)
        ~merge:(fun a b ->
          Int_vec.append a b;
          a)
        ~lo:0 ~hi:n
  | _ ->
      let out = Int_vec.create ~capacity:n () in
      for i = 0 to n - 1 do
        if keep i then Int_vec.push out i
      done;
      out

(* Narrow a selection vector over [n] candidates ([None] = all of them). *)
let refine ?pool ~n sel keep =
  match sel with
  | None -> Some (select_positions ?pool n keep)
  | Some s ->
      let hits =
        select_positions ?pool (Int_vec.length s) (fun j ->
            keep (Int_vec.unsafe_get s j))
      in
      Some (Int_vec.gather s hits)

(* Set semantics over whole rows: sort rows lexicographically in column
   order — the order [compare] gives equal-length int arrays — and drop
   duplicates. *)
let sort_dedupe cols =
  match cols with
  | [| c |] -> [| Int_vec.sort_unique c |]
  | _ ->
      let w = Array.length cols in
      let n = nrows_of cols in
      let cmp a b =
        let rec go s =
          if s = w then 0
          else
            let x = Int_vec.unsafe_get cols.(s) a
            and y = Int_vec.unsafe_get cols.(s) b in
            if x <> y then Int.compare x y else go (s + 1)
        in
        go 0
      in
      let perm = Array.init n Fun.id in
      Array.stable_sort cmp perm;
      let keep = Int_vec.create ~capacity:n () in
      Array.iteri
        (fun j r -> if j = 0 || cmp perm.(j - 1) r <> 0 then Int_vec.push keep r)
        perm;
      gather_cols cols keep

let label_positions layout =
  List.filter_map
    (fun i ->
      match layout.(i).s_label with
      | Some l -> Some (norm l, i)
      | None -> None)
    (List.init (Array.length layout) Fun.id)

let rows_of (r : relation) =
  Array.init (nrows_of r.cols) (fun i ->
      Array.map (fun c -> Int_vec.unsafe_get c i) r.cols)

let to_component (r : relation) = { slots = r.layout; rows = rows_of r }

(* ------------------------------------------------------------------ *)
(* Execution state for one path                                        *)

type env = (string, (int, unit) Hashtbl.t) Hashtbl.t
(* Label-value sets exported by earlier operands of an [and]. *)

type pstate = {
  db : Db.t;
  params : string -> Value.t option;
  u : Pack.universe;
  mode : mode;
  max_bytes : int;
  edges_needed : bool;
      (* whether the query output can observe regex-traversed edges *)
  env : env;
  mutable slots : slot array;
  mutable cols : Int_vec.t array; (* the binding relation, one per slot *)
  mutable vstep_count : int; (* vertex steps placed so far *)
  (* label name (normalized) -> element-wise? *)
  label_kinds : (string, bool) Hashtbl.t;
  regex_edges : Bitset.t option array;
      (* edges traversed inside regexes, one bitset per edge type *)
  (* s_step assignment: maps execution vstep index to display order *)
  step_code_v : int -> int;
  step_code_e : int -> int; (* edge arriving at exec vstep k *)
}

let nslots st = Array.length st.slots
let nrows st = nrows_of st.cols

(* The paper names "the possibility of obtaining large intermediate
   results" among the core challenges: rather than exhausting memory, the
   executor enforces a memory budget on the binding relation (one unboxed
   int per slot per row) and fails with a diagnosable error. *)
let cell_bytes = 8

let check_budget st loc =
  if cell_bytes * nslots st * nrows st > st.max_bytes then
    error loc
      "intermediate result exceeds the configured budget (%d cells); add \
       conditions or labels to make the query more selective"
      (st.max_bytes / cell_bytes)

let slot_of_label st name =
  let name = norm name in
  let rec go i =
    if i = nslots st then None
    else
      let s = st.slots.(i) in
      if (match s.s_label with Some l -> norm l = name | None -> false) then
        Some (i, s.s_kind)
      else go (i + 1)
  in
  go 0

let vertex_slot_of_label st name =
  match slot_of_label st name with Some (i, `V) -> Some i | _ -> None

let slot_lookup st : Step_cond.slot_lookup =
  { Step_cond.find_slot = (fun name -> slot_of_label st name) }

(* Keep policy: the current (last) slot always stays; labeled slots stay;
   in minimal mode everything else is projected away and rows deduped. *)
let retain st =
  match st.mode with
  | Keep_all -> ()
  | Keep_minimal keep ->
      let keep = List.map norm keep in
      let n = nslots st in
      let kept =
        List.filter
          (fun i ->
            let s = st.slots.(i) in
            i = n - 1
            || Option.is_some s.s_label
            || (match s.s_type_name with
               | Some t -> List.mem (norm t) keep
               | None -> false))
          (List.init n Fun.id)
      in
      let kept = Array.of_list kept in
      st.slots <- Array.map (fun i -> st.slots.(i)) kept;
      st.cols <- sort_dedupe (Array.map (fun i -> st.cols.(i)) kept)

let register_label st (v : Ast.vstep) =
  match v.Ast.v_label with
  | None -> ()
  | Some label ->
      let name = Ast.label_name label in
      Hashtbl.replace st.label_kinds (norm name)
        (match label with Ast.Each_label _ -> true | Ast.Set_label _ -> false)

let label_of_vstep (v : Ast.vstep) =
  Option.map Ast.label_name v.Ast.v_label

let value_set col =
  let set = Hashtbl.create 64 in
  Int_vec.iter (fun cell -> Hashtbl.replace set cell ()) col;
  set

(* ------------------------------------------------------------------ *)
(* Head seeding                                                        *)

(* Detect [key = constant] to seed from the key index instead of a scan. *)
let key_seed st vset (cond : Ast.expr option) =
  match cond with
  | None -> None
  | Some cond ->
      let key_schema = Vset.key_schema vset in
      if Schema.arity key_schema <> 1 then None
      else begin
        let kname = norm (Schema.col_name key_schema 0) in
        let value_of = function
          | Ast.E_lit (l, _) -> Some (Compile_expr.value_of_lit l)
          | Ast.E_param (p, _) -> st.params p
          | _ -> None
        in
        let rec find = function
          | [] -> None
          | Ast.E_binop (Ast.Eq, Ast.E_attr (q, a, _), rhs, _) :: rest
            when norm a = kname
                 && (match q with
                    | None -> true
                    | Some q -> norm q = norm (Vset.name vset)) -> (
              match value_of rhs with Some v -> Some v | None -> find rest)
          | Ast.E_binop (Ast.Eq, lhs, Ast.E_attr (q, a, _), _) :: rest
            when norm a = kname
                 && (match q with
                    | None -> true
                    | Some q -> norm q = norm (Vset.name vset)) -> (
              match value_of lhs with Some v -> Some v | None -> find rest)
          | _ :: rest -> find rest
        in
        find (Compile_expr.conjuncts cond)
      end

let compile_vcond st vset cond ~self_names =
  Option.map
    (fun c ->
      try
        Step_cond.compile_vertex ~params:st.params ~universe:st.u
          ~slots:(slot_lookup st) ~self_names ~vset c
      with Compile_expr.Compile_error (loc, msg) -> error loc "%s" msg)
    cond

let seed_vertices_of_type st ~tidx ~(cond : Ast.expr option) ~self_names ~sub =
  let vset = st.u.Pack.vtypes.(tidx) in
  let compiled = compile_vcond st vset cond ~self_names in
  let accept v =
    (match sub with Some bits -> Bitset.mem_padded bits v | None -> true)
    && (match compiled with
       | Some c -> Step_cond.eval_vertex c ~row:[||] ~vertex:v
       | None -> true)
  in
  match key_seed st vset cond with
  | Some key ->
      let out = Int_vec.create ~capacity:1 () in
      (match Vset.find_by_key vset [ key ] with
      | Some v when accept v -> Int_vec.push out (Pack.pack ~tidx ~id:v)
      | _ -> ());
      out
  | None ->
      let size = Vset.size vset in
      let unfiltered = Option.is_none compiled && Option.is_none sub in
      let out = Int_vec.create ~capacity:(if unfiltered then size else 16) () in
      for v = 0 to size - 1 do
        if accept v then Int_vec.push out (Pack.pack ~tidx ~id:v)
      done;
      out

let head_seeds st (v : Ast.vstep) : Int_vec.t * string option * string option =
  (* Returns seeds, the declared type name (if any), and the referenced
     cross-path label (if the head names one) — the slot must carry that
     label so [and] composition can join on it. *)
  match v.Ast.v_kind with
  | Ast.V_any ->
      if v.Ast.v_cond <> None then
        error v.Ast.v_loc "conditions are not allowed on [ ] steps";
      let out = Int_vec.create () in
      Array.iteri
        (fun tidx vset ->
          for id = 0 to Vset.size vset - 1 do
            Int_vec.push out (Pack.pack ~tidx ~id)
          done)
        st.u.Pack.vtypes;
      (out, None, None)
  | Ast.V_named n -> (
      match Hashtbl.find_opt st.env (norm n) with
      | Some set ->
          (* Cross-path label reference as head. *)
          let seeds = Hashtbl.fold (fun cell () acc -> cell :: acc) set [] in
          let seeds = List.sort compare seeds in
          let seeds =
            match v.Ast.v_cond with
            | None -> seeds
            | Some cond ->
                List.filter
                  (fun cell ->
                    let vset = Pack.vset_of st.u cell in
                    let c =
                      compile_vcond st vset (Some cond) ~self_names:[ n ]
                    in
                    match c with
                    | Some c ->
                        Step_cond.eval_vertex c ~row:[||] ~vertex:(Pack.id cell)
                    | None -> true)
                  seeds
          in
          (Int_vec.of_array (Array.of_list seeds), None, Some n)
      | None -> (
          match Pack.vtype_index st.u n with
          | Some tidx ->
              ( seed_vertices_of_type st ~tidx ~cond:v.Ast.v_cond
                  ~self_names:
                    (n :: (match label_of_vstep v with Some l -> [ l ] | None -> []))
                  ~sub:None,
                Some n,
                None )
          | None -> error v.Ast.v_loc "no such vertex type or label %S" n))
  | Ast.V_seeded (sg, vt) -> (
      match Db.find_subgraph st.db sg with
      | None -> error v.Ast.v_loc "no such subgraph %S" sg
      | Some sub -> (
          match Pack.vtype_index st.u vt with
          | None -> error v.Ast.v_loc "no such vertex type %S" vt
          | Some tidx ->
              let bits = Subgraph.vertices sub ~vtype:vt in
              let seeds =
                match bits with
                | None -> Int_vec.create ()
                | Some bits ->
                    seed_vertices_of_type st ~tidx ~cond:v.Ast.v_cond
                      ~self_names:[ vt ] ~sub:(Some bits)
              in
              (seeds, Some vt, None)))

(* ------------------------------------------------------------------ *)
(* Step expansion                                                      *)

type target =
  | T_type of int option  (** required vertex type index; None = any *)
  | T_label_each of int  (** slot position *)
  | T_label_set of int * (int, unit) Hashtbl.t
      (** label slot position and its current value set; the landing vertex
          must be in the set *and* share the row's bound type — a label on a
          type-matching step binds its type at matching time (Sec. II-B4) *)
  | T_env of (int, unit) Hashtbl.t
  | T_seeded of int * Bitset.t

(* Traversals applicable from a given left vertex type: which edge set,
   which CSR direction, and the type of the landing vertex. *)
type traversal = { tr_eidx : int; tr_out : bool; tr_other : int }

let traversals_for st (e : Ast.estep) ~ltidx ~(required_other : int option) =
  let lname = norm (Vset.name st.u.Pack.vtypes.(ltidx)) in
  let consider eidx eset acc =
    let src = norm (Eset.src_type eset) and dst = norm (Eset.dst_type eset) in
    let name_ok =
      match e.Ast.e_kind with
      | Ast.E_named n -> norm n = norm (Eset.name eset)
      | Ast.E_any -> true
    in
    if not name_ok then acc
    else
      match e.Ast.e_dir with
      | Ast.Out ->
          if src = lname then
            let other = Pack.vtype_index st.u (Eset.dst_type eset) in
            match other with
            | Some o
              when (match required_other with Some r -> r = o | None -> true) ->
                { tr_eidx = eidx; tr_out = true; tr_other = o } :: acc
            | _ -> acc
          else acc
      | Ast.In ->
          if dst = lname then
            let other = Pack.vtype_index st.u (Eset.src_type eset) in
            match other with
            | Some o
              when (match required_other with Some r -> r = o | None -> true) ->
                { tr_eidx = eidx; tr_out = false; tr_other = o } :: acc
            | _ -> acc
          else acc
  in
  let acc = ref [] in
  Array.iteri (fun eidx eset -> acc := consider eidx eset !acc) st.u.Pack.etypes;
  List.rev !acc

(* Candidate extensions of a step, one entry per CSR neighbor of a live
   row's current cell: the parent row, the packed edge, the packed vertex. *)
type cands = { par : Int_vec.t; edge : Int_vec.t; vert : Int_vec.t }

let fresh_cands () =
  { par = Int_vec.create (); edge = Int_vec.create (); vert = Int_vec.create () }

let append_cands a b =
  Int_vec.append a.par b.par;
  Int_vec.append a.edge b.edge;
  Int_vec.append a.vert b.vert;
  a

let expand_step st (e : Ast.estep) (v : Ast.vstep) =
  let width = nslots st in
  let cur = st.cols.(width - 1) in
  let n = Int_vec.length cur in
  (* Resolve the landing-step target. *)
  let target, declared_type, ref_label =
    match v.Ast.v_kind with
    | Ast.V_any ->
        if v.Ast.v_cond <> None then
          error v.Ast.v_loc "conditions are not allowed on [ ] steps";
        (T_type None, None, None)
    | Ast.V_named n -> (
        match vertex_slot_of_label st n with
        | Some pos ->
            let each =
              match Hashtbl.find_opt st.label_kinds (norm n) with
              | Some e -> e
              | None -> false
            in
            if each then (T_label_each pos, None, None)
            else (T_label_set (pos, value_set st.cols.(pos)), None, None)
        | None -> (
            match Hashtbl.find_opt st.env (norm n) with
            | Some set -> (T_env set, None, Some n)
            | None -> (
                match Pack.vtype_index st.u n with
                | Some tidx -> (T_type (Some tidx), Some n, None)
                | None -> error v.Ast.v_loc "no such vertex type or label %S" n)))
    | Ast.V_seeded (sg, vt) -> (
        match (Db.find_subgraph st.db sg, Pack.vtype_index st.u vt) with
        | Some sub, Some tidx -> (
            match Subgraph.vertices sub ~vtype:vt with
            | Some bits -> (T_seeded (tidx, bits), Some vt, None)
            | None -> (T_seeded (tidx, Bitset.create 0), Some vt, None))
        | None, _ -> error v.Ast.v_loc "no such subgraph %S" sg
        | _, None -> error v.Ast.v_loc "no such vertex type %S" vt)
  in
  let required_other =
    match target with
    | T_type req -> req
    | T_seeded (tidx, _) -> Some tidx
    | T_label_each _ | T_label_set _ | T_env _ -> None
  in
  (* Pre-compute traversals and compiled conditions for every left type in
     the frontier, so the expansion and filters are read-only
     (parallel-safe). *)
  let present = Array.make (Array.length st.u.Pack.vtypes) false in
  Int_vec.iter (fun cell -> present.(Pack.tidx cell) <- true) cur;
  let travs =
    Array.mapi
      (fun ltidx here ->
        if here then traversals_for st e ~ltidx ~required_other else [])
      present
  in
  let econd = Array.make (Array.length st.u.Pack.etypes) None in
  let vcond = Array.make (Array.length st.u.Pack.vtypes) None in
  let self_names =
    (match declared_type with Some n -> [ n ] | None -> [])
    @ (match label_of_vstep v with Some l -> [ l ] | None -> [])
    @ (match v.Ast.v_kind with Ast.V_named n -> [ n ] | _ -> [])
  in
  let arriving_edge_label = Option.map Ast.label_name e.Ast.e_label in
  let vcond_slots =
    let base = slot_lookup st in
    {
      Step_cond.find_slot =
        (fun name ->
          match base.Step_cond.find_slot name with
          | Some _ as hit -> hit
          | None -> (
              match arriving_edge_label with
              | Some l when norm l = name -> Some (width, `E)
              | _ -> None));
    }
  in
  let compile f =
    try Some (f ()) with Compile_expr.Compile_error (loc, msg) -> error loc "%s" msg
  in
  Array.iter
    (List.iter (fun tr ->
         (match e.Ast.e_cond with
         | Some c when Option.is_none econd.(tr.tr_eidx) ->
             let eset = st.u.Pack.etypes.(tr.tr_eidx) in
             econd.(tr.tr_eidx) <-
               compile (fun () ->
                   Step_cond.compile_edge ~params:st.params ~universe:st.u
                     ~slots:(slot_lookup st)
                     ~self_names:
                       ((match e.Ast.e_kind with
                        | Ast.E_named n -> [ n ]
                        | Ast.E_any -> [])
                       @
                       match e.Ast.e_label with
                       | Some l -> [ Ast.label_name l ]
                       | None -> [])
                     ~eset c)
         | _ -> ());
         match v.Ast.v_cond with
         | Some c when Option.is_none vcond.(tr.tr_other) ->
             let vset = st.u.Pack.vtypes.(tr.tr_other) in
             vcond.(tr.tr_other) <-
               compile (fun () ->
                   Step_cond.compile_vertex ~params:st.params ~universe:st.u
                     ~slots:vcond_slots ~self_names ~vset c)
         | _ -> ()))
    travs;
  (* CSR gather: every neighbor of every live row becomes a candidate. *)
  let emit c i =
    let cell = Int_vec.unsafe_get cur i in
    List.iter
      (fun tr ->
        let eset = st.u.Pack.etypes.(tr.tr_eidx) in
        let csr = if tr.tr_out then Eset.forward eset else Eset.reverse eset in
        Csr.iter_neighbors csr (Pack.id cell) (fun ~dst ~eid ->
            Int_vec.push c.par i;
            Int_vec.push c.edge (Pack.pack ~tidx:tr.tr_eidx ~id:eid);
            Int_vec.push c.vert (Pack.pack ~tidx:tr.tr_other ~id:dst)))
      travs.(Pack.tidx cell)
  in
  let pool = Db.pool st.db in
  let c =
    match pool with
    | Some pool when n >= par_threshold ->
        Pool.parallel_reduce pool ~init:fresh_cands ~body:emit ~merge:append_cands
          ~lo:0 ~hi:n
    | _ ->
        let c = fresh_cands () in
        for i = 0 to n - 1 do
          emit c i
        done;
        c
  in
  let ncands = Int_vec.length c.par in
  let parent k = Int_vec.unsafe_get c.par k
  and ecell k = Int_vec.unsafe_get c.edge k
  and vcell k = Int_vec.unsafe_get c.vert k in
  (* The candidate's full binding, for conditions that read earlier
     labeled steps (the arriving edge sits at [width]). *)
  let row_of k =
    let p = parent k in
    Array.init (width + 2) (fun s ->
        if s < width then Int_vec.unsafe_get st.cols.(s) p
        else if s = width then ecell k
        else vcell k)
  in
  (* Selection-vector filters, in the order the conditions apply: edge
     condition, landing target, vertex condition. *)
  let sel = ref None in
  let filter keep = sel := refine ?pool ~n:ncands !sel keep in
  if Array.exists Option.is_some econd then
    filter (fun k ->
        let ed = ecell k in
        match econd.(Pack.tidx ed) with
        | Some cond ->
            let row = if Step_cond.reads_slots cond then row_of k else [||] in
            Step_cond.eval_edge cond ~row ~edge:(Pack.id ed)
        | None -> true);
  (match target with
  | T_type _ -> () (* filtered via required_other *)
  | T_label_each pos ->
      let bound = st.cols.(pos) in
      filter (fun k -> vcell k = Int_vec.unsafe_get bound (parent k))
  | T_label_set (pos, set) ->
      let bound = st.cols.(pos) in
      filter (fun k ->
          let cell = vcell k in
          Hashtbl.mem set cell
          && Pack.tidx cell = Pack.tidx (Int_vec.unsafe_get bound (parent k)))
  | T_env set -> filter (fun k -> Hashtbl.mem set (vcell k))
  | T_seeded (_, bits) ->
      filter (fun k -> Bitset.mem_padded bits (Pack.id (vcell k))));
  if Array.exists Option.is_some vcond then
    filter (fun k ->
        let cell = vcell k in
        match vcond.(Pack.tidx cell) with
        | Some cond ->
            let row = if Step_cond.reads_slots cond then row_of k else [||] in
            Step_cond.eval_vertex cond ~row ~vertex:(Pack.id cell)
        | None -> true);
  let par, edges, verts =
    match !sel with
    | None -> (c.par, c.edge, c.vert)
    | Some s ->
        (Int_vec.gather c.par s, Int_vec.gather c.edge s, Int_vec.gather c.vert s)
  in
  let k = st.vstep_count in
  let eslot =
    {
      s_kind = `E;
      s_label = Option.map Ast.label_name e.Ast.e_label;
      s_type_name =
        (match e.Ast.e_kind with Ast.E_named n -> Some n | Ast.E_any -> None);
      s_step = st.step_code_e k;
    }
  in
  let vslot =
    {
      s_kind = `V;
      s_label =
        (match label_of_vstep v with Some l -> Some l | None -> ref_label);
      s_type_name = declared_type;
      s_step = st.step_code_v k;
    }
  in
  st.slots <- Array.append st.slots [| eslot; vslot |];
  st.cols <- Array.append (gather_cols st.cols par) [| edges; verts |];
  st.vstep_count <- k + 1;
  register_label st v;
  check_budget st v.Ast.v_loc;
  retain st

(* ------------------------------------------------------------------ *)
(* Regex segments                                                      *)

(* The automaton hands over, per row, the ascending endpoint column of its
   last cell: the row extends once per endpoint, and the earlier columns
   are gathered through the parent index. *)
let endpoint_rows st reach =
  let cur = st.cols.(nslots st - 1) in
  let par = Int_vec.create () and ends = Int_vec.create () in
  for i = 0 to Int_vec.length cur - 1 do
    let r = reach (Int_vec.unsafe_get cur i) in
    for _ = 1 to Int_vec.length r do
      Int_vec.push par i
    done;
    Int_vec.append ends r
  done;
  (par, ends)

let push_endpoints st (par, ends) loc =
  let k = st.vstep_count in
  let vslot =
    { s_kind = `V; s_label = None; s_type_name = None; s_step = st.step_code_v k }
  in
  st.slots <- Array.append st.slots [| vslot |];
  st.cols <- Array.append (gather_cols st.cols par) [| ends |];
  st.vstep_count <- k + 1;
  check_budget st loc;
  retain st

(* A regex segment: compile the group body once to an [Rpq] automaton,
   then run product BFS per distinct frontier cell (memoized). Noted
   edges follow [Reference_exec]'s traversed-edge definition. *)
let expand_regex_nfa st (xr : xregex) =
  let a =
    try
      Rpq.compile ~params:st.params ~u:st.u ~reversed:xr.xr_reversed
        ?exit_vstep:xr.xr_exit ~body:xr.xr_body ~op:xr.xr_op ~loc:xr.xr_loc ()
    with Rpq.Rpq_error (loc, msg) -> error loc "%s" msg
  in
  let nst = Rpq.nstates a in
  let stats = Array.make nst 0 in
  let note =
    if st.edges_needed && not xr.xr_reversed then Some st.regex_edges else None
  in
  let pool = Db.pool st.db in
  let memo : (int, Int_vec.t) Hashtbl.t = Hashtbl.create 64 in
  let reach start =
    match Hashtbl.find_opt memo start with
    | Some cached -> cached
    | None ->
        let r = Rpq.eval a ?pool ~stats ?note ~start () in
        Hashtbl.replace memo start r;
        r
  in
  let sp =
    Trace.begin_span ~cat:"rpq"
      ~args:
        [
          ("states", string_of_int nst);
          ("reversed", string_of_bool xr.xr_reversed);
        ]
      "rpq.eval"
  in
  let endpoints = endpoint_rows st reach in
  Trace.end_span sp;
  (* Per-state visited sizes become profile rows, in the same order as
     EXPLAIN's per-state plan rows (the segment summary row follows from
     the caller's step timer). *)
  (match Profile.current () with
  | Some c ->
      let infos = Rpq.states a in
      Array.iteri
        (fun s rows ->
          Profile.note_step c ~label:infos.(s).Rpq.si_label ~rows ~ms:0.)
        stats
  | None -> ());
  push_endpoints st endpoints xr.xr_loc

(* ------------------------------------------------------------------ *)
(* Planner: direction choice (Sec. III-B)                              *)

let vstep_count_of_path (p : Ast.path) =
  1
  + List.fold_left
      (fun acc -> function
        | Ast.Seg_step _ -> acc + 1
        | Ast.Seg_regex _ -> acc + 1)
      0 p.Ast.segments

let path_has_labels (p : Ast.path) =
  let vstep_labelled (v : Ast.vstep) = v.Ast.v_label <> None in
  vstep_labelled p.Ast.head
  || List.exists
       (function
         | Ast.Seg_step (_, v) -> vstep_labelled v
         | Ast.Seg_regex (body, _, _) -> List.exists (fun (_, v) -> vstep_labelled v) body)
       p.Ast.segments

let path_has_regex (p : Ast.path) =
  List.exists
    (function Ast.Seg_regex _ -> true | Ast.Seg_step _ -> false)
    p.Ast.segments

let last_vstep (p : Ast.path) =
  match List.rev p.Ast.segments with
  | [] -> p.Ast.head
  | Ast.Seg_step (_, v) :: _ -> v
  | Ast.Seg_regex (body, _, _) :: _ -> (
      match List.rev body with
      | (_, v) :: _ -> v
      | [] -> p.Ast.head)

let estimate_seed ~db ~params u (v : Ast.vstep) =
  match v.Ast.v_kind with
  | Ast.V_any ->
      Array.fold_left (fun acc vs -> acc + Vset.size vs) 0 u.Pack.vtypes
  | Ast.V_seeded (sg, vt) -> (
      match Db.find_subgraph db sg with
      | Some sub -> (
          match Subgraph.vertices sub ~vtype:vt with
          | Some bits -> Bitset.cardinal bits
          | None -> 0)
      | None -> 0)
  | Ast.V_named n -> (
      match Pack.vtype_index u n with
      | None -> max_int (* label or unknown: avoid reversal *)
      | Some tidx -> (
          let size = Vset.size u.Pack.vtypes.(tidx) in
          match v.Ast.v_cond with
          | None -> size
          | Some cond ->
              let key_schema = Vset.key_schema u.Pack.vtypes.(tidx) in
              let kname =
                if Schema.arity key_schema = 1 then
                  Some (norm (Schema.col_name key_schema 0))
                else None
              in
              let is_key_eq =
                List.exists
                  (function
                    | Ast.E_binop (Ast.Eq, Ast.E_attr (_, a, _), (Ast.E_lit _ | Ast.E_param _), _)
                    | Ast.E_binop (Ast.Eq, (Ast.E_lit _ | Ast.E_param _), Ast.E_attr (_, a, _), _)
                      -> (
                        match kname with Some k -> norm a = k | None -> false)
                    | _ -> false)
                  (Compile_expr.conjuncts cond)
              in
              ignore params;
              if is_key_eq then 1 else max 1 (size / 10)))

let reverse_path (p : Ast.path) : Ast.path =
  (* Only called on regex-free paths. *)
  let flip (e : Ast.estep) =
    { e with Ast.e_dir = (match e.Ast.e_dir with Ast.Out -> Ast.In | Ast.In -> Ast.Out) }
  in
  let steps =
    List.map
      (function
        | Ast.Seg_step (e, v) -> (e, v)
        | Ast.Seg_regex _ -> assert false)
      p.Ast.segments
  in
  (* vertices: v0 e1 v1 e2 v2 ... en vn  =>  vn en' v(n-1) ... e1' v0 *)
  let vertices = p.Ast.head :: List.map snd steps in
  let edges = List.map fst steps in
  let rev_vertices = List.rev vertices in
  let rev_edges = List.rev_map flip edges in
  match rev_vertices with
  | [] -> p
  | head :: rest ->
      let segments =
        List.map2 (fun e v -> Ast.Seg_step (e, v)) rev_edges rest
      in
      { Ast.head; segments }

(* A regex path can only run tail-first when (a) the reversed automaton's
   endpoint filters are expressible — the vertex before each regex is
   [ ] or a known vertex type — and (b) the path actually ends in a
   concrete step to seed from. *)
let regex_reversible ~u (p : Ast.path) =
  let ok_prev = function
    | None -> true (* anonymous regex endpoint *)
    | Some (v : Ast.vstep) -> (
        match v.Ast.v_kind with
        | Ast.V_any -> v.Ast.v_cond = None
        | Ast.V_named n -> Pack.vtype_index u n <> None
        | Ast.V_seeded _ -> false)
  in
  (match List.rev p.Ast.segments with
  | Ast.Seg_step _ :: _ -> true
  | _ -> false)
  &&
  let prev = ref (Some p.Ast.head) in
  List.for_all
    (fun seg ->
      let ok =
        match seg with Ast.Seg_regex _ -> ok_prev !prev | Ast.Seg_step _ -> true
      in
      (prev :=
         match seg with
         | Ast.Seg_step (_, v) -> Some v
         | Ast.Seg_regex _ -> None);
      ok)
    p.Ast.segments

let direction ~u ~edges_needed (p : Ast.path) ~db ~params =
  let regex_ok =
    (not (path_has_regex p))
    || ((not edges_needed) && regex_reversible ~u p)
  in
  if path_has_labels p || not regex_ok then `Forward
  else
    let head_est = estimate_seed ~db ~params u p.Ast.head in
    let tail_est = estimate_seed ~db ~params u (last_vstep p) in
    if tail_est < head_est then `Backward else `Forward

let chosen_direction ?(edges_needed = true) (p : Ast.path) ~db ~params =
  direction ~u:(Db.universe db) ~edges_needed p ~db ~params

let plan ~u ~db ~params ~auto_reverse ~edges_needed (p : Ast.path) : path_plan =
  let reversed =
    auto_reverse && direction ~u ~edges_needed p ~db ~params = `Backward
  in
  if not reversed then
    {
      px_head = p.Ast.head;
      px_steps =
        List.map
          (function
            | Ast.Seg_step (e, v) -> X_step (e, v)
            | Ast.Seg_regex (body, op, loc) ->
                X_regex
                  {
                    xr_body = body;
                    xr_op = op;
                    xr_loc = loc;
                    xr_reversed = false;
                    xr_exit = None;
                  })
          p.Ast.segments;
      px_reversed = false;
    }
  else if not (path_has_regex p) then
    let q = reverse_path p in
    {
      px_head = q.Ast.head;
      px_steps =
        List.map
          (function
            | Ast.Seg_step (e, v) -> X_step (e, v)
            | Ast.Seg_regex _ -> assert false)
          q.Ast.segments;
      px_reversed = true;
    }
  else begin
    let flip (e : Ast.estep) =
      {
        e with
        Ast.e_dir =
          (match e.Ast.e_dir with Ast.Out -> Ast.In | Ast.In -> Ast.Out);
      }
    in
    let segs = Array.of_list p.Ast.segments in
    let n = Array.length segs in
    (* landing i = the vertex after segment i; None = anonymous regex
       endpoint. landing (-1) = the head. *)
    let landing i =
      if i < 0 then Some p.Ast.head
      else
        match segs.(i) with
        | Ast.Seg_step (_, v) -> Some v
        | Ast.Seg_regex _ -> None
    in
    let any_at loc =
      { Ast.v_kind = Ast.V_any; v_label = None; v_cond = None; v_loc = loc }
    in
    let head =
      match landing (n - 1) with
      | Some v -> v
      | None -> assert false (* guarded by regex_reversible *)
    in
    let steps = ref [] in
    for i = 0 to n - 1 do
      let xs =
        match segs.(i) with
        | Ast.Seg_step (e, _) ->
            let dst =
              match landing (i - 1) with
              | Some v -> v
              | None -> any_at e.Ast.e_loc
            in
            X_step (flip e, dst)
        | Ast.Seg_regex (body, op, loc) ->
            X_regex
              {
                xr_body = body;
                xr_op = op;
                xr_loc = loc;
                xr_reversed = true;
                xr_exit = landing (i - 1);
              }
      in
      steps := xs :: !steps
    done;
    { px_head = head; px_steps = !steps; px_reversed = true }
  end


let plan_path ~db ~params ?(auto_reverse = true) ?(edges_needed = true) p =
  plan ~u:(Db.universe db) ~db ~params ~auto_reverse ~edges_needed p

(* [path.*] counters count frontier rows and steps, which are fixed by
   the query and data — invariant across domain counts. *)
let m_steps = Metrics.counter "path.steps"
let m_seed_rows = Metrics.counter "path.seed_rows"
let m_step_rows = Metrics.counter "path.step_rows"
let h_step_us = Metrics.histogram "path.step_us"

let vstep_name (v : Ast.vstep) =
  match v.Ast.v_kind with
  | Ast.V_named n -> n
  | Ast.V_any -> "[ ]"
  | Ast.V_seeded (sg, vt) -> Printf.sprintf "%s<%s>" vt sg

let seg_label = function
  | Ast.Seg_step (e, v) ->
      let ename =
        match e.Ast.e_kind with Ast.E_named n -> n | Ast.E_any -> ""
      in
      let arrow =
        match e.Ast.e_dir with
        | Ast.Out -> Printf.sprintf "--%s-->" ename
        | Ast.In -> Printf.sprintf "<--%s--" ename
      in
      arrow ^ " " ^ vstep_name v
  | Ast.Seg_regex (_, op, _) ->
      "( regex )"
      ^ (match op with
        | Ast.Rx_star -> "*"
        | Ast.Rx_plus -> "+"
        | Ast.Rx_count n -> Printf.sprintf "{%d}" n)

let xstep_label = function
  | X_step (e, v) -> seg_label (Ast.Seg_step (e, v))
  | X_regex xr -> seg_label (Ast.Seg_regex (xr.xr_body, xr.xr_op, xr.xr_loc))


let default_max_bytes = cell_bytes * 50_000_000

let run_path ~db ~params ~u ~mode ~max_bytes ~env ~regex_edges ~auto_reverse
    ~edges_needed (p : Ast.path) : relation =
  let n = vstep_count_of_path p - 1 in
  let plan = plan ~u ~db ~params ~auto_reverse ~edges_needed p in
  let reversed = plan.px_reversed in
  let step_code_v k = if reversed then 2 * (n - k) else 2 * k in
  let step_code_e k = if reversed then (2 * (n - k)) + 1 else (2 * k) - 1 in
  let st =
    {
      db;
      params;
      u;
      mode;
      max_bytes;
      edges_needed;
      env;
      slots = [||];
      cols = [||];
      vstep_count = 0;
      label_kinds = Hashtbl.create 4;
      regex_edges;
      step_code_v;
      step_code_e;
    }
  in
  let prof = Profile.current () in
  (match prof with Some c -> Profile.begin_path c | None -> ());
  (* Step labels are only rendered for a consumer: an armed trace or a
     profile collector. *)
  let timed_step ~label ~span_name f =
    let armed = Trace.is_armed () in
    let label = if armed || Option.is_some prof then label () else "" in
    let sp =
      if armed then Trace.begin_span ~cat:"path" ~args:[ ("step", label) ] span_name
      else Trace.null_span
    in
    let t0 = Unix.gettimeofday () in
    f ();
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    Trace.end_span sp;
    let rows = nrows st in
    Metrics.add m_step_rows rows;
    Metrics.observe h_step_us (ms *. 1000.);
    match prof with
    | Some c -> Profile.note_step c ~label ~rows ~ms
    | None -> ()
  in
  (* Head *)
  timed_step
    ~label:(fun () -> "seed " ^ vstep_name plan.px_head)
    ~span_name:"path.seed"
    (fun () ->
      let seeds, declared, ref_label = head_seeds st plan.px_head in
      st.slots <-
        [|
          {
            s_kind = `V;
            s_label =
              (match label_of_vstep plan.px_head with
              | Some l -> Some l
              | None -> ref_label);
            s_type_name = declared;
            s_step = step_code_v 0;
          };
        |];
      st.cols <- [| seeds |];
      st.vstep_count <- 1;
      register_label st plan.px_head;
      retain st;
      Metrics.add m_seed_rows (nrows st));
  List.iter
    (fun xs ->
      timed_step
        ~label:(fun () -> xstep_label xs)
        ~span_name:"path.step"
        (fun () ->
          Metrics.incr m_steps;
          match xs with
          | X_step (e, v) -> expand_step st e v
          | X_regex xr -> expand_regex_nfa st xr))
    plan.px_steps;
  { layout = st.slots; cols = st.cols }

(* [and]: a hash join on the shared label columns. Output rows follow the
   left operand's order, and for each left row the right matches in their
   own order. *)
let join_relations (a : relation) (b : relation) loc : relation =
  let apos = label_positions a.layout and bpos = label_positions b.layout in
  let shared = List.filter (fun (l, _) -> List.mem_assoc l bpos) apos in
  if shared = [] then
    error loc "'and' composition requires a shared label between the operands";
  let a_keys = List.map (fun (_, i) -> a.cols.(i)) shared in
  let b_key_pos = List.map (fun (l, _) -> List.assoc l bpos) shared in
  let b_keys = List.map (fun i -> b.cols.(i)) b_key_pos in
  let b_keep =
    List.filter
      (fun i -> not (List.mem i b_key_pos))
      (List.init (Array.length b.layout) Fun.id)
  in
  let key cols r = List.map (fun c -> Int_vec.unsafe_get c r) cols in
  let nb = nrows_of b.cols in
  let index = Hashtbl.create (max 16 nb) in
  for r = 0 to nb - 1 do
    let k = key b_keys r in
    match Hashtbl.find_opt index k with
    | Some rows -> Int_vec.push rows r
    | None ->
        let rows = Int_vec.create ~capacity:4 () in
        Int_vec.push rows r;
        Hashtbl.add index k rows
  done;
  let left = Int_vec.create () and right = Int_vec.create () in
  for r = 0 to nrows_of a.cols - 1 do
    match Hashtbl.find_opt index (key a_keys r) with
    | Some rows ->
        Int_vec.iter
          (fun rb ->
            Int_vec.push left r;
            Int_vec.push right rb)
          rows
    | None -> ()
  done;
  let b_keep = Array.of_list b_keep in
  {
    layout = Array.append a.layout (Array.map (fun i -> b.layout.(i)) b_keep);
    cols =
      Array.append (gather_cols a.cols left)
        (Array.map (fun i -> Int_vec.gather b.cols.(i) right) b_keep);
  }

let compatible_layout (a : relation) (b : relation) =
  Array.length a.layout = Array.length b.layout
  && Array.for_all2
       (fun x y ->
         x.s_kind = y.s_kind
         && Option.map norm x.s_label = Option.map norm y.s_label
         && Option.map norm x.s_type_name = Option.map norm y.s_type_name)
       a.layout b.layout

let mp_loc = function
  | Ast.M_path p -> p.Ast.head.Ast.v_loc
  | Ast.M_and _ | Ast.M_or _ -> Loc.dummy

let run ~db ~params ~mode ?(auto_reverse = true) ?(edges_needed = true)
    ?(max_bytes = default_max_bytes) mp =
  let u = Db.universe db in
  let regex_edges = Array.make (Array.length u.Pack.etypes) None in
  let rec go env = function
    | Ast.M_path p ->
        [
          run_path ~db ~params ~u ~mode ~max_bytes ~env ~regex_edges
            ~auto_reverse ~edges_needed p;
        ]
    | Ast.M_and (a, b) -> (
        match go env a with
        | [ ra ] ->
            (* Export ra's label sets to the right operand. *)
            let env' = Hashtbl.copy env in
            List.iter
              (fun (lname, pos) ->
                Hashtbl.replace env' lname (value_set ra.cols.(pos)))
              (label_positions ra.layout);
            (match go env' b with
            | [ rb ] -> [ join_relations ra rb (mp_loc b) ]
            | _ ->
                error (mp_loc b)
                  "'and' composition over 'or' alternatives is not supported; \
                   distribute the 'and'")
        | _ ->
            error (mp_loc a)
              "'and' composition over 'or' alternatives is not supported; \
               distribute the 'and'")
    | Ast.M_or (a, b) -> (
        let ca = go env a and cb = go env b in
        match (ca, cb) with
        | [ x ], [ y ] when compatible_layout x y ->
            let cols =
              Array.map2
                (fun cx cy ->
                  let cap = Int_vec.length cx + Int_vec.length cy in
                  let c = Int_vec.create ~capacity:cap () in
                  Int_vec.append c cx;
                  Int_vec.append c cy;
                  c)
                x.cols y.cols
            in
            [ { layout = x.layout; cols = sort_dedupe cols } ]
        | _ -> ca @ cb)
  in
  let comps = go (Hashtbl.create 4) mp in
  { comps; universe = u; regex_edges }

let run_multipath ~db ~params ~mode ?auto_reverse ?edges_needed ?max_bytes mp =
  let r = run ~db ~params ~mode ?auto_reverse ?edges_needed ?max_bytes mp in
  { r with comps = List.map to_component r.comps }

let nrows (r : relation) = nrows_of r.cols

let regex_edge_list (r : _ outcome) =
  let out = ref [] in
  Array.iteri
    (fun t bits ->
      Option.iter
        (Bitset.iter (fun id -> out := Pack.pack ~tidx:t ~id :: !out))
        bits)
    r.regex_edges;
  List.rev !out
