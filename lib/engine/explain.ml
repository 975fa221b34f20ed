module Ast = Graql_lang.Ast
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr
module Subgraph = Graql_graph.Subgraph
module Bitset = Graql_util.Bitset

type seed_strategy =
  | Seed_key_lookup of string
  | Seed_scan_filtered
  | Seed_scan_full
  | Seed_subgraph of string
  | Seed_all_types

type step_plan = { sp_label : string; sp_fanout : float; sp_estimate : float }

type plan = {
  pl_direction : [ `Forward | `Backward ];
  pl_seed : seed_strategy;
  pl_seed_estimate : float;
  pl_steps : step_plan list;
}

let norm = String.lowercase_ascii

(* Selectivity guesses mirror the executor's planner: key equality -> one
   row; any other condition -> 10%. *)
let cond_selectivity = 0.1

let seed_of ~db u (v : Ast.vstep) ~params =
  match v.Ast.v_kind with
  | Ast.V_any ->
      let total =
        Array.fold_left (fun acc vs -> acc + Vset.size vs) 0 u.Pack.vtypes
      in
      (Seed_all_types, float_of_int total)
  | Ast.V_seeded (sg, vt) ->
      let size =
        match Db.find_subgraph db sg with
        | Some sub -> (
            match Subgraph.vertices sub ~vtype:vt with
            | Some bits -> Bitset.cardinal bits
            | None -> 0)
        | None -> 0
      in
      let est =
        match v.Ast.v_cond with
        | Some _ -> float_of_int size *. cond_selectivity
        | None -> float_of_int size
      in
      (Seed_subgraph sg, est)
  | Ast.V_named n -> (
      match Pack.vtype_index u n with
      | None -> (Seed_scan_full, 0.0) (* label head: sized by the other path *)
      | Some tidx -> (
          let vset = u.Pack.vtypes.(tidx) in
          let size = float_of_int (Vset.size vset) in
          match v.Ast.v_cond with
          | None -> (Seed_scan_full, size)
          | Some cond ->
              let key_schema = Vset.key_schema vset in
              let key_eq =
                if Schema.arity key_schema <> 1 then None
                else
                  let kname = norm (Schema.col_name key_schema 0) in
                  let value_of = function
                    | Ast.E_lit (l, _) -> Some (Compile_expr.value_of_lit l)
                    | Ast.E_param (p, _) -> params p
                    | _ -> None
                  in
                  List.find_map
                    (function
                      | Ast.E_binop (Ast.Eq, Ast.E_attr (_, a, _), rhs, _)
                        when norm a = kname ->
                          value_of rhs
                      | Ast.E_binop (Ast.Eq, lhs, Ast.E_attr (_, a, _), _)
                        when norm a = kname ->
                          value_of lhs
                      | _ -> None)
                    (Compile_expr.conjuncts cond)
              in
              (match key_eq with
              | Some v -> (Seed_key_lookup (Value.to_string v), 1.0)
              | None -> (Seed_scan_filtered, Float.max 1.0 (size *. cond_selectivity)))))

(* Fan-out of one traversal step from a set of possible source types. *)
let step_stats u (e : Ast.estep) ~from_types ~(to_spec : Ast.vstep) =
  let to_name =
    match to_spec.Ast.v_kind with
    | Ast.V_named n when Pack.vtype_index u n <> None -> Some (norm n)
    | Ast.V_seeded (_, vt) -> Some (norm vt)
    | _ -> None
  in
  let esets = ref [] in
  Array.iter
    (fun eset ->
      let name_ok =
        match e.Ast.e_kind with
        | Ast.E_named n -> norm n = norm (Eset.name eset)
        | Ast.E_any -> true
      in
      if name_ok then begin
        let src = norm (Eset.src_type eset) and dst = norm (Eset.dst_type eset) in
        let from_t, to_t =
          match e.Ast.e_dir with Ast.Out -> (src, dst) | Ast.In -> (dst, src)
        in
        let from_ok =
          match from_types with None -> true | Some ts -> List.mem from_t ts
        in
        let to_ok = match to_name with None -> true | Some t -> t = to_t in
        if from_ok && to_ok then esets := eset :: !esets
      end)
    u.Pack.etypes;
  let fanout =
    List.fold_left
      (fun acc eset ->
        let csr =
          match e.Ast.e_dir with
          | Ast.Out -> Eset.forward eset
          | Ast.In -> Eset.reverse eset
        in
        acc +. Csr.avg_degree csr)
      0.0 !esets
  in
  let names =
    match !esets with
    | [] -> "(no matching edge type)"
    | l -> String.concat "+" (List.rev_map Eset.name l)
  in
  let targets =
    match to_name with Some t -> t | None -> "[ ]"
  in
  let dir = match e.Ast.e_dir with Ast.Out -> "-->" | Ast.In -> "<--" in
  (Printf.sprintf "%s %s %s" dir names targets, fanout)

(* Per-automaton-state plan rows for a regex segment: one row per state,
   in state order, with the arriving atom's fanout chained from the
   feeding state and capped by the landing type's cardinality (a frontier
   can never exceed the vertex set it lives in — this is what makes star
   estimates saturate instead of diverging). The executor's profiler
   emits per-state actual rows under the same labels, so EXPLAIN ANALYZE
   aligns est vs actual per state. *)
let regex_state_steps u ~incoming (xr : Path_exec.xregex) =
  let infos =
    Rpq.shape ~body:xr.Path_exec.xr_body ~op:xr.Path_exec.xr_op
      ~reversed:xr.Path_exec.xr_reversed
  in
  let n = Array.length infos in
  let total_vertices =
    float_of_int
      (Array.fold_left (fun acc vs -> acc + Vset.size vs) 0 u.Pack.vtypes)
  in
  let cap_of (vo : Ast.vstep option) =
    match vo with
    | Some { Ast.v_kind = Ast.V_named t; _ } -> (
        match Pack.vtype_index u t with
        | Some ti -> float_of_int (Vset.size u.Pack.vtypes.(ti))
        | None -> total_vertices)
    | _ -> total_vertices
  in
  let est = Array.make n incoming in
  let order =
    (* states chain by index; reversed automata feed from the higher
       index (the forward successor) *)
    if xr.Path_exec.xr_reversed then List.init n (fun i -> n - 1 - i)
    else List.init n Fun.id
  in
  let fanouts = Array.make n 0.0 in
  List.iter
    (fun s ->
      match infos.(s).Rpq.si_estep with
      | None -> est.(s) <- incoming
      | Some e ->
          let to_spec =
            match infos.(s).Rpq.si_vstep with
            | Some v -> v
            | None ->
                {
                  Ast.v_kind = Ast.V_any;
                  v_label = None;
                  v_cond = None;
                  v_loc = xr.Path_exec.xr_loc;
                }
          in
          let _, fanout = step_stats u e ~from_types:None ~to_spec in
          fanouts.(s) <- fanout;
          let prev =
            if xr.Path_exec.xr_reversed then
              if s + 1 < n then est.(s + 1) else incoming
            else if s > 0 then est.(s - 1)
            else incoming
          in
          est.(s) <- Float.min (prev *. fanout) (cap_of infos.(s).Rpq.si_vstep))
    order;
  List.init n (fun s ->
      {
        sp_label = infos.(s).Rpq.si_label;
        sp_fanout = fanouts.(s);
        sp_estimate = est.(s);
      })

let explain_path ~db ~params ?(edges_needed = true) (p : Ast.path) =
  let u = Db.universe db in
  let plan = Path_exec.plan_path ~db ~params ~edges_needed p in
  let direction = if plan.Path_exec.px_reversed then `Backward else `Forward in
  let head = plan.Path_exec.px_head in
  let seed, seed_est = seed_of ~db u head ~params in
  let head_types =
    match head.Ast.v_kind with
    | Ast.V_named n when Pack.vtype_index u n <> None -> Some [ norm n ]
    | Ast.V_seeded (_, vt) -> Some [ norm vt ]
    | _ -> None
  in
  let steps = ref [] in
  let est = ref seed_est in
  let types = ref head_types in
  List.iter
    (fun xs ->
      match xs with
      | Path_exec.X_step (e, v) ->
          let label, fanout = step_stats u e ~from_types:!types ~to_spec:v in
          let sel = match v.Ast.v_cond with Some _ -> cond_selectivity | None -> 1.0 in
          est := !est *. fanout *. sel;
          steps := { sp_label = label; sp_fanout = fanout; sp_estimate = !est } :: !steps;
          types :=
            (match v.Ast.v_kind with
            | Ast.V_named n when Pack.vtype_index u n <> None -> Some [ norm n ]
            | Ast.V_seeded (_, vt) -> Some [ norm vt ]
            | _ -> None)
      | Path_exec.X_regex xr ->
          let body = xr.Path_exec.xr_body and op = xr.Path_exec.xr_op in
          (* One row per automaton state, then the segment summary row —
             mirroring the executor's per-state profile samples followed
             by the step timer's summary sample. *)
          steps :=
            List.rev_append (regex_state_steps u ~incoming:!est xr) !steps;
          let fanout =
            List.fold_left
              (fun acc (e, v) ->
                let _, f = step_stats u e ~from_types:None ~to_spec:v in
                acc +. f)
              0.0 body
          in
          let opname =
            match op with
            | Ast.Rx_star -> "*"
            | Ast.Rx_plus -> "+"
            | Ast.Rx_count n -> Printf.sprintf "{%d}" n
          in
          est := !est *. Float.max 1.0 fanout;
          steps :=
            {
              sp_label = Printf.sprintf "( regex )%s" opname;
              sp_fanout = fanout;
              sp_estimate = !est;
            }
            :: !steps;
          types := None)
    plan.Path_exec.px_steps;
  { pl_direction = direction; pl_seed = seed; pl_seed_estimate = seed_est;
    pl_steps = List.rev !steps }

let rec explain_multipath ~db ~params ?(edges_needed = true) = function
  | Ast.M_path p -> [ explain_path ~db ~params ~edges_needed p ]
  | Ast.M_and (a, b) | Ast.M_or (a, b) ->
      explain_multipath ~db ~params ~edges_needed a
      @ explain_multipath ~db ~params ~edges_needed b

(* Whether a graph-select statement's output can observe the edges
   traversed inside regex segments: only [into subgraph] with a [*]
   target materializes them ([Results.to_subgraph]). Everything else can
   skip edge-noting and lets the planner reverse regex paths. *)
let edges_needed_of_select (sg : Ast.select_graph) =
  match sg.Ast.sg_into with
  | Ast.Into_subgraph _ ->
      List.exists (fun t -> t = Ast.T_star) sg.Ast.sg_targets
  | Ast.Into_table _ | Ast.Into_nothing -> false

let seed_string = function
  | Seed_key_lookup v -> Printf.sprintf "key index lookup (= %s)" v
  | Seed_scan_filtered -> "type scan with filter"
  | Seed_scan_full -> "full type scan"
  | Seed_subgraph sg -> Printf.sprintf "subgraph seed (%s)" sg
  | Seed_all_types -> "all vertex types"

let pp ppf plan =
  Format.fprintf ppf "direction: %s@\nseed: %s (est. %.1f)"
    (match plan.pl_direction with `Forward -> "forward" | `Backward -> "backward (reversed via reverse index)")
    (seed_string plan.pl_seed) plan.pl_seed_estimate;
  List.iter
    (fun s ->
      Format.fprintf ppf "@\nstep: %-36s fanout %6.2f   est. frontier %10.1f"
        s.sp_label s.sp_fanout s.sp_estimate)
    plan.pl_steps

let to_string plan = Format.asprintf "%a" pp plan
