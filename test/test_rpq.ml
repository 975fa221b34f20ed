(* The product-automaton RPQ engine: automaton shapes, parity with the
   naive reference fixpoint (rows and traversed edges) on seeded random
   graphs and hand-built worlds, at several domain counts, Kleene corner
   cases (empty frontiers, self-loops, {0}/{n}, dead states), the regex
   EXPLAIN plan node, and the static checks on regex bodies. *)

module Db = Graql_engine.Db
module Ddl_exec = Graql_engine.Ddl_exec
module Script_exec = Graql_engine.Script_exec
module Path_exec = Graql_engine.Path_exec
module Reference_exec = Graql_engine.Reference_exec
module Explain = Graql_engine.Explain
module Rpq = Graql_engine.Rpq
module Pack = Graql_engine.Pack
module Metrics = Graql_obs.Metrics
module Parser = Graql_lang.Parser
module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Meta = Graql_analysis.Meta
module Diag = Graql_analysis.Diag
module Typecheck = Graql_analysis.Typecheck
module Rng = Graql_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* A small two-type world: A vertices with an integer x, B vertices,    *)
(* edges A->A (eaa, self-loops allowed), A->B (eab), B->A (eba), each   *)
(* with a small integer weight w.                                       *)

let schema_script =
  {|
create table TA(id varchar(6), x integer)
create table TB(id varchar(6), x integer)
create table EAA(f varchar(6), t varchar(6), w integer)
create table EAB(f varchar(6), t varchar(6), w integer)
create table EBA(f varchar(6), t varchar(6), w integer)
create vertex A(id) from table TA
create vertex B(id) from table TB
create edge eaa with vertices (A as S, A as D) from table EAA
  where EAA.f = S.id and EAA.t = D.id
create edge eab with vertices (A, B) from table EAB
  where EAB.f = A.id and EAB.t = B.id
create edge eba with vertices (B, A) from table EBA
  where EBA.f = B.id and EBA.t = A.id
ingest table TA ta.csv
ingest table TB tb.csv
ingest table EAA eaa.csv
ingest table EAB eab.csv
ingest table EBA eba.csv
|}

type world = {
  na : int;
  nb : int;
  e_aa : (int * int) list;
  e_ab : (int * int) list;
  e_ba : (int * int) list;
}

let csv_vertices prefix n =
  "id,x\n"
  ^ String.concat ""
      (List.init n (fun i -> Printf.sprintf "%s%d,%d\n" prefix i i))

let csv_edges pf pt edges =
  "f,t,w\n"
  ^ String.concat ""
      (List.mapi
         (fun i (f, t) -> Printf.sprintf "%s%d,%s%d,%d\n" pf f pt t (i mod 5))
         edges)

let build_db ?pool w =
  let loader = function
    | "ta.csv" -> csv_vertices "a" w.na
    | "tb.csv" -> csv_vertices "b" w.nb
    | "eaa.csv" -> csv_edges "a" "a" w.e_aa
    | "eab.csv" -> csv_edges "a" "b" w.e_ab
    | "eba.csv" -> csv_edges "b" "a" w.e_ba
    | f -> raise (Sys_error f)
  in
  let db = Db.create ?pool () in
  Ddl_exec.install db;
  ignore
    (Script_exec.exec_script ~loader ~parallel:false db
       (Parser.parse_script schema_script));
  db

(* AST pieces *)

let v ?cond name =
  { Ast.v_kind = Ast.V_named name; v_label = None; v_cond = cond; v_loc = Loc.dummy }

let e ?cond ?(dir = Ast.Out) name =
  { Ast.e_kind = Ast.E_named name; e_dir = dir; e_label = None;
    e_cond = cond; e_loc = Loc.dummy }

let x_eq i =
  Ast.E_binop
    ( Ast.Eq,
      Ast.E_attr (None, "x", Loc.dummy),
      Ast.E_lit (Ast.L_int i, Loc.dummy),
      Loc.dummy )

let x_le i =
  Ast.E_binop
    ( Ast.Le,
      Ast.E_attr (None, "x", Loc.dummy),
      Ast.E_lit (Ast.L_int i, Loc.dummy),
      Loc.dummy )

let w_lt i =
  Ast.E_binop
    ( Ast.Lt,
      Ast.E_attr (None, "w", Loc.dummy),
      Ast.E_lit (Ast.L_int i, Loc.dummy),
      Loc.dummy )

let regex_path ~start ~body ~op =
  {
    Ast.head = v "A" ~cond:(x_eq start);
    segments = [ Ast.Seg_regex (body, op, Loc.dummy) ];
  }

(* ------------------------------------------------------------------ *)
(* Harness: rows in display order (stable under planner reversal)      *)

let run_gen db path ~edges_needed ~keep =
  let res =
    Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Path_exec.Keep_all ~edges_needed (Ast.M_path path)
  in
  let rows =
    List.concat_map
      (fun (c : Path_exec.component) ->
        let order =
          List.sort
            (fun a b ->
              compare c.Path_exec.slots.(a).Path_exec.s_step
                c.Path_exec.slots.(b).Path_exec.s_step)
            (List.filter
               (fun i -> keep c.Path_exec.slots.(i))
               (List.init (Array.length c.Path_exec.slots) Fun.id))
        in
        Array.to_list
          (Array.map
             (fun row -> List.map (fun i -> row.(i)) order)
             c.Path_exec.rows))
      res.Path_exec.comps
  in
  (List.sort compare rows, Path_exec.regex_edge_list res)

let run db path ~edges_needed = run_gen db path ~edges_needed ~keep:(fun _ -> true)

let run_proj db path ~edges_needed ~kind =
  fst
    (run_gen db path ~edges_needed ~keep:(fun s -> s.Path_exec.s_kind = kind))

(* The reference's vertex tuples, sorted, and its traversed edges: the
   unit the engine's vertex rows and noted edges are checked against. *)
let reference db path =
  let r = Reference_exec.run_path ~db ~params:(fun _ -> None) path in
  ( List.sort compare (List.map Array.to_list r.Reference_exec.tuples),
    r.Reference_exec.edges )

(* ------------------------------------------------------------------ *)
(* Shape units                                                          *)

let atom_aa = (e "eaa", v "A")

let test_shape_star () =
  let infos = Rpq.shape ~body:[ atom_aa ] ~op:Ast.Rx_star ~reversed:false in
  check_int "star k=1 has 2 states" 2 (Array.length infos);
  check "entry initial" true infos.(0).Rpq.si_initial;
  check "entry accepting (star)" true infos.(0).Rpq.si_accepting;
  check "loop state accepting" true infos.(1).Rpq.si_accepting;
  check "entry has no arriving edge" true (infos.(0).Rpq.si_estep = None);
  check "state 1 arrives via eaa" true (infos.(1).Rpq.si_estep <> None)

let test_shape_plus_two_atoms () =
  let infos =
    Rpq.shape
      ~body:[ (e "eab", v "B"); (e "eba", v "A") ]
      ~op:Ast.Rx_plus ~reversed:false
  in
  check_int "plus k=2 has 3 states" 3 (Array.length infos);
  check "entry not accepting (plus)" false infos.(0).Rpq.si_accepting;
  check "mid state not accepting" false infos.(1).Rpq.si_accepting;
  check "final state accepting" true infos.(2).Rpq.si_accepting

let test_shape_count () =
  let c3 = Rpq.shape ~body:[ atom_aa ] ~op:(Ast.Rx_count 3) ~reversed:false in
  check_int "{3} k=1 has 4 states" 4 (Array.length c3);
  check "only the last accepts" true
    (List.init 4 (fun s -> c3.(s).Rpq.si_accepting) = [ false; false; false; true ]);
  let c0 = Rpq.shape ~body:[ atom_aa ] ~op:(Ast.Rx_count 0) ~reversed:false in
  check_int "{0} degenerates to entry" 1 (Array.length c0);
  check "{0} accepts immediately" true c0.(0).Rpq.si_accepting;
  let neg = Rpq.shape ~body:[ atom_aa ] ~op:(Ast.Rx_count (-2)) ~reversed:false in
  check_int "negative count degrades, never raises" 1 (Array.length neg)

let test_shape_reversed () =
  let infos =
    Rpq.shape
      ~body:[ atom_aa; atom_aa ]
      ~op:Ast.Rx_star ~reversed:true
  in
  check_int "reversed star k=2 has 3 states" 3 (Array.length infos);
  check "forward-accepting states seed the reversal" true
    (infos.(0).Rpq.si_initial && infos.(2).Rpq.si_initial);
  check "forward entry accepts the reversal" true infos.(0).Rpq.si_accepting

(* ------------------------------------------------------------------ *)
(* Parity on seeded random graphs                                      *)

let random_world rng =
  let na = 3 + Rng.int rng 4 in
  let nb = 2 + Rng.int rng 3 in
  let edges n m count =
    List.init (Rng.int rng count) (fun _ -> (Rng.int rng n, Rng.int rng m))
  in
  {
    na;
    nb;
    e_aa = edges na na 16 (* includes self-loops *);
    e_ab = edges na nb 10;
    e_ba = edges nb na 10;
  }

let bodies rng =
  let vcond = if Rng.int rng 3 = 0 then Some (x_le (Rng.int rng 6)) else None in
  let econd = if Rng.int rng 3 = 0 then Some (w_lt (1 + Rng.int rng 4)) else None in
  [
    [ (e ?cond:econd "eaa", v ?cond:vcond "A") ];
    [ (e "eaa", v "A"); (e ?cond:econd "eaa", v ?cond:vcond "A") ];
    [ (e "eab", v "B"); (e "eba", v ?cond:vcond "A") ];
  ]

let ops = [ Ast.Rx_star; Ast.Rx_plus; Ast.Rx_count 0; Ast.Rx_count 1; Ast.Rx_count 3 ]

let op_name = function
  | Ast.Rx_star -> "*"
  | Ast.Rx_plus -> "+"
  | Ast.Rx_count n -> Printf.sprintf "{%d}" n

let test_parity_random_graphs () =
  for seed = 0 to 29 do
    let rng = Rng.make seed in
    let w = random_world rng in
    let db = build_db w in
    let start = Rng.int rng w.na in
    List.iteri
      (fun bi body ->
        List.iter
          (fun op ->
            let path = regex_path ~start ~body ~op in
            let what =
              Printf.sprintf "seed %d body %d op %s" seed bi (op_name op)
            in
            (* The naive reference fixpoint agrees: rows and noted edges. *)
            let auto = run db path ~edges_needed:true in
            if auto <> reference db path then
              Alcotest.failf "%s: automaton <> reference" what;
            (* Endpoint-only mode may reverse; row bags must still agree. *)
            if fst (run db path ~edges_needed:false) <> fst auto then
              Alcotest.failf "%s: endpoint-only rows diverge" what)
          ops)
      (bodies rng)
  done

let test_parity_star_then_step () =
  (* Regex followed by a plain step: exercises reversal with an exit
     filter on the regex, and mid-path automaton frontiers. *)
  for seed = 30 to 39 do
    let rng = Rng.make seed in
    let w = random_world rng in
    let db = build_db w in
    let start = Rng.int rng w.na in
    let path =
      {
        Ast.head = v "A" ~cond:(x_eq start);
        segments =
          [
            Ast.Seg_regex ([ atom_aa ], Ast.Rx_star, Loc.dummy);
            Ast.Seg_step (e "eab", v "B");
          ];
      }
    in
    let auto = run db path ~edges_needed:true in
    if fst (run db path ~edges_needed:false) <> fst auto then
      Alcotest.failf "seed %d: star-then-step diverges without edges" seed;
    (* The reference reports vertex positions only; drop edge slots. *)
    let ref_rows, ref_edges = reference db path in
    if run_proj db path ~edges_needed:true ~kind:`V <> ref_rows then
      Alcotest.failf "seed %d: star-then-step <> reference" seed;
    if snd auto <> ref_edges then
      Alcotest.failf "seed %d: noted edges <> reference" seed
  done

(* ------------------------------------------------------------------ *)
(* Corner cases                                                        *)

let test_empty_frontier () =
  (* a2 has no outgoing eaa edges at all. *)
  let w = { na = 3; nb = 1; e_aa = [ (0, 1) ]; e_ab = []; e_ba = [] } in
  let db = build_db w in
  let run_op op =
    fst (run db (regex_path ~start:2 ~body:[ atom_aa ] ~op) ~edges_needed:true)
  in
  check_int "plus from a sink is empty" 0 (List.length (run_op Ast.Rx_plus));
  check_int "star from a sink is itself" 1 (List.length (run_op Ast.Rx_star));
  check_int "{2} from a sink is empty" 0 (List.length (run_op (Ast.Rx_count 2)))

let test_self_loop () =
  let w = { na = 2; nb = 1; e_aa = [ (0, 0); (0, 1) ]; e_ab = []; e_ba = [] } in
  let db = build_db w in
  let endpoints op =
    List.sort_uniq compare
      (List.map
         (fun row -> List.nth row 1)
         (fst
            (run db (regex_path ~start:0 ~body:[ atom_aa ] ~op)
               ~edges_needed:true)))
  in
  check_int "plus over a self-loop reaches both" 2 (List.length (endpoints Ast.Rx_plus));
  check_int "{3} stays saturated" 2 (List.length (endpoints (Ast.Rx_count 3)))

let test_dead_states () =
  (* Second atom expects an A->B edge starting from B: structurally
     impossible, so states past it are dead. *)
  let w = { na = 3; nb = 2; e_aa = []; e_ab = [ (0, 0); (0, 1) ]; e_ba = [] } in
  let db = build_db w in
  let body = [ (e "eab", v "B"); (e "eab", v "B") ] in
  List.iter
    (fun op ->
      let path = regex_path ~start:0 ~body ~op in
      let auto = run db path ~edges_needed:true in
      check (Printf.sprintf "dead states agree (%s)" (op_name op)) true
        (auto = reference db path);
      let n = List.length (fst auto) in
      match op with
      | Ast.Rx_star -> check_int "star: only the start" 1 n
      | _ -> check_int "plus/{n}: nothing" 0 n)
    [ Ast.Rx_star; Ast.Rx_plus; Ast.Rx_count 2 ]

(* The traversed-edge definition on hand-built worlds, expected sets
   written out: an edge is noted iff it lies on a complete body traversal
   of a walk the operator accepts. *)
let test_edge_semantics () =
  let module Eset = Graql_graph.Eset in
  let module Vset = Graql_graph.Vset in
  (* The packed cell of the [name] edge from vertex key [f] to key [t]. *)
  let edge db name f t =
    let u = Pack.universe (Db.graph db) in
    let tidx = Option.get (Pack.etype_index u name) in
    let es = u.Pack.etypes.(tidx) in
    let vset ty = u.Pack.vtypes.(Option.get (Pack.vtype_index u ty)) in
    let sv = vset (Eset.src_type es) and dv = vset (Eset.dst_type es) in
    let rec find eid =
      if Vset.key_string sv (Eset.src es eid) = f
         && Vset.key_string dv (Eset.dst es eid) = t
      then Pack.pack ~tidx ~id:eid
      else find (eid + 1)
    in
    find 0
  in
  let expect what db path expected =
    let expected = List.sort compare expected in
    check (what ^ ": reference") true (snd (reference db path) = expected);
    check (what ^ ": automaton") true
      (snd (run db path ~edges_needed:true) = expected)
  in
  (* a0 -eab-> b0 -eba-> a1 completes the body; a0 -eab-> b1 dies at the
     second atom, so its first-atom edge is not traversed. *)
  let db =
    build_db
      { na = 2; nb = 2; e_aa = []; e_ab = [ (0, 0); (0, 1) ]; e_ba = [ (0, 1) ] }
  in
  expect "dead second atom" db
    (regex_path ~start:0 ~body:[ (e "eab", v "B"); (e "eba", v "A") ] ~op:Ast.Rx_plus)
    [ edge db "eab" "a0" "b0"; edge db "eba" "b0" "a1" ];
  (* From a0, a1 runs a second round and a2 does not: {2} prunes a0 -> a2,
     and {0} notes nothing. *)
  let db =
    build_db { na = 4; nb = 1; e_aa = [ (0, 1); (0, 2); (1, 3) ]; e_ab = []; e_ba = [] }
  in
  expect "{2} prunes a short walk" db
    (regex_path ~start:0 ~body:[ atom_aa ] ~op:(Ast.Rx_count 2))
    [ edge db "eaa" "a0" "a1"; edge db "eaa" "a1" "a3" ];
  expect "{0}" db (regex_path ~start:0 ~body:[ atom_aa ] ~op:(Ast.Rx_count 0)) [];
  (* A self-loop under +, beside an edge into a0 that no walk from a0
     takes. *)
  let db =
    build_db { na = 3; nb = 1; e_aa = [ (0, 0); (0, 1); (2, 0) ]; e_ab = []; e_ba = [] }
  in
  expect "self-loop under +" db
    (regex_path ~start:0 ~body:[ atom_aa ] ~op:Ast.Rx_plus)
    [ edge db "eaa" "a0" "a0"; edge db "eaa" "a0" "a1" ]

(* ------------------------------------------------------------------ *)
(* Parallel evaluation                                                *)

let test_domain_invariance_large_frontier () =
  (* A hub fanning out to thousands of vertices: level-1 frontier exceeds
     the chunk-parallel threshold, so pooled runs take the parallel
     branch; results must be byte-identical at every domain count. *)
  let n = 5000 in
  let w =
    {
      na = n;
      nb = 1;
      e_aa = List.init (n - 1) (fun i -> (0, i + 1)) @ [ (n - 1, 0) ];
      e_ab = [];
      e_ba = [];
    }
  in
  let path = regex_path ~start:0 ~body:[ atom_aa ] ~op:Ast.Rx_plus in
  let serial = run (build_db w) path ~edges_needed:true in
  check_int "everything is reachable" n (List.length (fst serial));
  check "serial = reference" true (serial = reference (build_db w) path);
  List.iter
    (fun domains ->
      let pool = Graql_parallel.Domain_pool.create ~domains () in
      let db = build_db ~pool w in
      let pooled = run db path ~edges_needed:true in
      Graql_parallel.Domain_pool.shutdown pool;
      if pooled <> serial then
        Alcotest.failf "domain count %d changed the result" domains)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN and observability                                           *)

let test_explain_regex_plan () =
  let w = { na = 4; nb = 2; e_aa = [ (0, 1); (1, 2) ]; e_ab = [ (2, 0) ]; e_ba = [] } in
  let db = build_db w in
  let path = regex_path ~start:0 ~body:[ atom_aa; atom_aa ] ~op:Ast.Rx_plus in
  let plans =
    Explain.explain_multipath ~db ~params:(fun _ -> None) (Ast.M_path path)
  in
  match plans with
  | [ plan ] ->
      (* One row per automaton state (3 for a two-atom plus), then the
         segment summary row. *)
      check_int "per-state rows + summary" 4 (List.length plan.Explain.pl_steps);
      let labels = List.map (fun s -> s.Explain.sp_label) plan.Explain.pl_steps in
      let infos = Rpq.shape ~body:[ atom_aa; atom_aa ] ~op:Ast.Rx_plus ~reversed:false in
      Array.iteri
        (fun i info ->
          check (Printf.sprintf "state %d label matches executor" i) true
            (List.nth labels i = info.Rpq.si_label))
        infos;
      check "summary row last" true
        (String.length (List.nth labels 3) >= 9
        && String.sub (List.nth labels 3) 0 9 = "( regex )");
  | _ -> Alcotest.fail "expected one plan"

let test_rpq_counters () =
  let w = { na = 3; nb = 1; e_aa = [ (0, 1); (1, 2) ]; e_ab = []; e_ba = [] } in
  let db = build_db w in
  let before =
    Option.value ~default:0
      (Metrics.find_counter (Metrics.snapshot ()) "rpq.evals")
  in
  ignore
    (run db (regex_path ~start:0 ~body:[ atom_aa ] ~op:Ast.Rx_plus)
       ~edges_needed:true);
  let after =
    Option.value ~default:0
      (Metrics.find_counter (Metrics.snapshot ()) "rpq.evals")
  in
  check "rpq.evals incremented" true (after > before)

(* ------------------------------------------------------------------ *)
(* Static checks on regex bodies                                       *)

let run_check script = Typecheck.check_script (Meta.create ()) script

let has_error_containing diags fragment =
  List.exists
    (fun (d : Diag.t) ->
      let m = d.Diag.message in
      let rec contains i =
        i + String.length fragment <= String.length m
        && (String.sub m i (String.length fragment) = fragment || contains (i + 1))
      in
      d.Diag.severity = Diag.Error && contains 0)
    diags

(* Entity names are case-insensitive in the analyzer, so the runtime
   schema's table EAA would collide with edge eaa; the static tests use
   their own DDL with distinct names. *)
let static_ddl =
  {|
create table PeopleT(id varchar(6), x integer)
create table OtherT(id varchar(6), x integer)
create table KnowsT(f varchar(6), t varchar(6), w integer)
create vertex A(id) from table PeopleT
create vertex B(id) from table OtherT
create edge eaa with vertices (A as S, A as D) from table KnowsT
  where KnowsT.f = S.id and KnowsT.t = D.id
|}

let query_script query = static_ddl ^ "\n" ^ query

let test_static_label_in_regex () =
  let diags =
    run_check
      (Parser.parse_script
         (query_script
            "select * from graph A ( --eaa--> def X: A )+ into subgraph S1"))
  in
  check "labels inside regexes are an analysis error" true
    (has_error_containing diags "labels are not supported inside path regexes")

let test_static_negative_count () =
  (* The parser cannot produce a negative count; build it by rewriting a
     parsed {2}. The checker must reject it statically — the executor's
     own guard is unreachable through the front end. *)
  let script =
    Parser.parse_script
      (query_script "select * from graph A ( --eaa--> A ){2} into subgraph S2")
  in
  let rec rw_mp = function
    | Ast.M_path p ->
        Ast.M_path { p with Ast.segments = List.map rw_seg p.Ast.segments }
    | Ast.M_and (a, b) -> Ast.M_and (rw_mp a, rw_mp b)
    | Ast.M_or (a, b) -> Ast.M_or (rw_mp a, rw_mp b)
  and rw_seg = function
    | Ast.Seg_regex (b, Ast.Rx_count _, l) -> Ast.Seg_regex (b, Ast.Rx_count (-1), l)
    | s -> s
  in
  let script =
    List.map
      (function
        | Ast.Select_graph sg ->
            Ast.Select_graph { sg with Ast.sg_path = rw_mp sg.Ast.sg_path }
        | s -> s)
      script
  in
  check "negative counts are an analysis error" true
    (has_error_containing (run_check script) "non-negative")

let test_static_clean_regex () =
  let diags =
    run_check
      (Parser.parse_script
         (query_script "select * from graph A ( --eaa--> A )* into subgraph S3"))
  in
  check "well-formed regex stays clean" true
    (not (List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) diags))

let () =
  Alcotest.run "rpq"
    [
      ( "shape",
        [
          Alcotest.test_case "star" `Quick test_shape_star;
          Alcotest.test_case "plus, two atoms" `Quick test_shape_plus_two_atoms;
          Alcotest.test_case "counts" `Quick test_shape_count;
          Alcotest.test_case "reversed" `Quick test_shape_reversed;
        ] );
      ( "parity",
        [
          Alcotest.test_case "random graphs, three engines" `Slow
            test_parity_random_graphs;
          Alcotest.test_case "star then step" `Slow test_parity_star_then_step;
        ] );
      ( "corners",
        [
          Alcotest.test_case "empty frontier" `Quick test_empty_frontier;
          Alcotest.test_case "self loops" `Quick test_self_loop;
          Alcotest.test_case "dead states" `Quick test_dead_states;
          Alcotest.test_case "traversed-edge semantics" `Quick test_edge_semantics;
        ] );
      ( "parallel-and-dfa",
        [
          Alcotest.test_case "domain invariance, big frontier" `Slow
            test_domain_invariance_large_frontier;
        ] );
      ( "explain-and-obs",
        [
          Alcotest.test_case "regex plan node" `Quick test_explain_regex_plan;
          Alcotest.test_case "rpq counters" `Quick test_rpq_counters;
        ] );
      ( "static-checks",
        [
          Alcotest.test_case "label in regex" `Quick test_static_label_in_regex;
          Alcotest.test_case "negative count" `Quick test_static_negative_count;
          Alcotest.test_case "clean regex" `Quick test_static_clean_regex;
        ] );
    ]
