(* The SNB deep-traversal scenario end-to-end: generator determinism,
   ingest shape, and the traversal queries' answers against independent
   CSV oracles and [Reference_exec] — at several domain counts. *)

module Session = Graql_gems.Session
module Db = Graql_engine.Db
module Script_exec = Graql_engine.Script_exec
module Path_exec = Graql_engine.Path_exec
module Pack = Graql_engine.Pack
module Reference_exec = Graql_engine.Reference_exec
module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Subgraph = Graql_graph.Subgraph
module Graph_store = Graql_graph.Graph_store
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Ast = Graql_lang.Ast
module Metrics = Graql_obs.Metrics
module Gen = Graql_snb.Snb_gen
module Queries = Graql_snb.Snb_queries
module Reference = Graql_snb.Snb_reference

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ids = Alcotest.(check (list string))

let sessions : (int * int, Session.t) Hashtbl.t = Hashtbl.create 4

let session ?(seed = 42) ~scale () =
  match Hashtbl.find_opt sessions (seed, scale) with
  | Some s -> s
  | None ->
      let s = Session.create () in
      Gen.ingest_all ~seed ~scale s;
      Hashtbl.replace sessions (seed, scale) s;
      s

let set_param s name v = Db.set_param (Session.db s) name (Value.Str v)

(* Run a path AST and return the sorted distinct key strings of the last
   slot (the regex endpoint / final step). *)
let endpoints_of db path ~edges_needed =
  let res =
    Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Path_exec.Keep_all ~edges_needed (Ast.M_path path)
  in
  match res.Path_exec.comps with
  | [ c ] ->
      let col = Array.length c.Path_exec.slots - 1 in
      let u = res.Path_exec.universe in
      List.sort_uniq compare
        (Array.to_list
           (Array.map
              (fun row ->
                let cell = row.(col) in
                Vset.key_string (Pack.vset_of u cell) (Pack.id cell))
              c.Path_exec.rows))
  | _ -> Alcotest.fail "one component expected"

(* The observable state of a run: the vertex rows and the noted regex
   edges, the unit compared with [reference_result]. The planner may
   reverse an endpoint-only regex traversal, which permutes the internal
   slot layout, so rows are normalised to display order (slot [s_step])
   and sorted. Edge slots are dropped: the reference reports vertex
   cells only. *)
let engine_result db path ~edges_needed =
  let res =
    Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Path_exec.Keep_all ~edges_needed (Ast.M_path path)
  in
  match res.Path_exec.comps with
  | [ c ] ->
      let order =
        List.sort
          (fun a b ->
            compare c.Path_exec.slots.(a).Path_exec.s_step
              c.Path_exec.slots.(b).Path_exec.s_step)
          (List.filter
             (fun i -> c.Path_exec.slots.(i).Path_exec.s_kind = `V)
             (List.init (Array.length c.Path_exec.slots) Fun.id))
      in
      ( List.sort compare
          (Array.to_list
             (Array.map
                (fun row -> List.map (fun i -> row.(i)) order)
                c.Path_exec.rows)),
        Path_exec.regex_edge_list res )
  | _ -> Alcotest.fail "one component expected"

let reference_result db path =
  let r = Reference_exec.run_path ~db ~params:(fun _ -> None) path in
  ( List.sort compare (List.map Array.to_list r.Reference_exec.tuples),
    r.Reference_exec.edges )

(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  check "same seed identical" true
    (Gen.csv_files ~seed:1 ~scale:1 () = Gen.csv_files ~seed:1 ~scale:1 ());
  check "seed changes data" true
    (Gen.csv_files ~seed:1 ~scale:1 () <> Gen.csv_files ~seed:2 ~scale:1 ())

let test_ingest_counts () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let c = Gen.counts ~scale:1 in
  check_int "people" c.Gen.n_people
    (Table.nrows (Db.find_table_exn db "People"));
  check_int "posts" c.Gen.n_posts (Table.nrows (Db.find_table_exn db "Posts"));
  check_int "comments" c.Gen.n_comments
    (Table.nrows (Db.find_table_exn db "Comments"));
  let g = Db.graph db in
  check_int "person vertices" c.Gen.n_people
    (Vset.size (Graph_store.find_vset_exn g "Person"));
  check "knows edges exist" true
    (Eset.size (Graph_store.find_eset_exn g "knows") > 0);
  check "reply chains exist" true
    (Eset.size (Graph_store.find_eset_exn g "replyOfComment") > 0)

let test_knows_plus_vs_oracle () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let person = Reference.hub_person ~scale:1 () in
  let oracle = Reference.knows_plus ~scale:1 ~person () in
  check "oracle non-trivial" true (List.length oracle > 2);
  check_ids "knows+ (edges observed)" oracle
    (endpoints_of db (Queries.path_knows_plus ~person) ~edges_needed:true);
  check_ids "knows+ (endpoints only)" oracle
    (endpoints_of db (Queries.path_knows_plus ~person) ~edges_needed:false);
  check_ids "knows*" (Reference.knows_star ~scale:1 ~person ())
    (endpoints_of db (Queries.path_knows_star ~person) ~edges_needed:true)

let test_knows_knows_plus_vs_oracle () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let person = Reference.hub_person ~scale:1 () in
  let oracle = Reference.knows_knows_plus ~scale:1 ~person () in
  check "oracle non-trivial" true (oracle <> []);
  check_ids "(knows knows)+" oracle
    (endpoints_of db (Queries.path_knows_knows_plus ~person) ~edges_needed:true)

let test_reply_chain_vs_oracle () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let comment, depth = Reference.deepest_comment ~scale:1 () in
  check "chains are deep" true (depth >= 4);
  List.iter
    (fun n ->
      check_ids
        (Printf.sprintf "reply chain {%d}" n)
        (Reference.reply_chain ~scale:1 ~comment ~n ())
        (endpoints_of db
           (Queries.path_reply_chain ~comment ~n)
           ~edges_needed:true))
    [ 0; 1; 4; depth; depth + 1 ]

let test_thread_root_vs_oracle () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let comment, _ = Reference.deepest_comment ~scale:1 () in
  check_ids "thread root posts"
    (Reference.thread_root_posts ~scale:1 ~comment ())
    (endpoints_of db (Queries.path_thread_root ~comment) ~edges_needed:false)

let test_engines_byte_identical () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let person = Reference.hub_person ~scale:1 () in
  let comment, _ = Reference.deepest_comment ~scale:1 () in
  List.iter
    (fun (name, path) ->
      let ref_rows, ref_edges = reference_result db path in
      let rows, edges = engine_result db path ~edges_needed:true in
      if rows <> ref_rows then Alcotest.failf "%s: rows <> reference" name;
      if edges <> ref_edges then Alcotest.failf "%s: edges <> reference" name;
      if fst (engine_result db path ~edges_needed:false) <> ref_rows then
        Alcotest.failf "%s (endpoints only): rows <> reference" name)
    [
      ("knows+", Queries.path_knows_plus ~person);
      ("knows*", Queries.path_knows_star ~person);
      ("(knows knows)+", Queries.path_knows_knows_plus ~person);
      ("chain{4}", Queries.path_reply_chain ~comment ~n:4);
      ("thread root", Queries.path_thread_root ~comment);
    ]

let test_domain_count_invariance () =
  (* Same data, pools of different sizes: byte-identical results. *)
  let person = Reference.hub_person ~scale:2 () in
  let path = Queries.path_knows_plus ~person in
  let results =
    List.map
      (fun domains ->
        let pool = Graql_parallel.Domain_pool.create ~domains () in
        let s = Session.create ~pool () in
        Gen.ingest_all ~seed:42 ~scale:2 s;
        engine_result (Session.db s) path ~edges_needed:true)
      [ 1; 2; 4; 8 ]
  in
  match results with
  | base :: rest ->
      check "1 domain = reference" true
        (base = reference_result (Session.db (session ~scale:2 ())) path);
      List.iteri
        (fun i r ->
          if r <> base then
            Alcotest.failf "domain count %d changed the result"
              (List.nth [ 2; 4; 8 ] i))
        rest
  | [] -> assert false

(* Regex edge noting at SF8 from the hub person: the automaton notes
   [Reference_exec]'s edge sets at every pool width, and its [rpq.*]
   counters equal pinned values ([rpq.noted_edges] counts every note,
   repeats included). *)
let test_noted_edges_pinned () =
  let scale = 8 in
  let person = Reference.hub_person ~scale () in
  let comment, _ = Reference.deepest_comment ~scale () in
  let noted = Metrics.counter "rpq.noted_edges"
  and visited = Metrics.counter "rpq.visited_pairs" in
  (* name, path, (edges, rpq.noted_edges, rpq.visited_pairs) *)
  let queries =
    [
      ("knows+", Queries.path_knows_plus ~person, (1229, 1241, 282));
      ("knows*", Queries.path_knows_star ~person, (1229, 1241, 282));
      ("(knows knows)+", Queries.path_knows_knows_plus ~person, (1229, 2470, 563));
      ("thread root", Queries.path_thread_root ~comment, (15, 15, 16));
    ]
  in
  (* The reference's edge sets, once per query: packed cells are the same
     at every pool width. *)
  let reference_edges =
    let db = Session.db (session ~scale ()) in
    List.map (fun (name, path, _) -> (name, snd (reference_result db path))) queries
  in
  List.iter
    (fun domains ->
      let pool = Graql_parallel.Domain_pool.create ~domains () in
      let s = Session.create ~pool () in
      Gen.ingest_all ~seed:42 ~scale s;
      let db = Session.db s in
      let edges path =
        Path_exec.regex_edge_list
          (Path_exec.run ~db
             ~params:(fun _ -> None)
             ~mode:Path_exec.Keep_all (Ast.M_path path))
      in
      List.iter
        (fun (name, path, (n_edges, n_noted, n_visited)) ->
          let what fmt = Printf.sprintf ("%s at %d domains: " ^^ fmt) name domains in
          let n0 = Metrics.counter_value noted
          and v0 = Metrics.counter_value visited in
          let auto = edges path in
          check_int (what "rpq.noted_edges") n_noted (Metrics.counter_value noted - n0);
          check_int (what "rpq.visited_pairs") n_visited
            (Metrics.counter_value visited - v0);
          check_int (what "edges") n_edges (List.length auto);
          check (what "ascending") true (List.sort_uniq compare auto = auto);
          check (what "automaton = reference") true
            (auto = List.assoc name reference_edges))
        queries;
      Graql_parallel.Domain_pool.shutdown pool)
    [ 1; 2; 4; 8 ]

let test_scripts_end_to_end () =
  let s = session ~scale:1 () in
  let person = Reference.hub_person ~scale:1 () in
  let comment, _ = Reference.deepest_comment ~scale:1 () in
  set_param s "Person1" person;
  set_param s "Comment1" comment;
  set_param s "Forum1" "fo0";
  List.iter
    (fun (name, q) ->
      List.iter
        (function
          | _, Script_exec.O_failed err ->
              Alcotest.failf "%s failed: %s" name
                (Graql_engine.Graql_error.to_string err)
          | _ -> ())
        (Session.run_script s q))
    Queries.all

let test_knows_plus_subgraph_matches_oracle () =
  let s = session ~scale:1 () in
  let person = Reference.hub_person ~scale:1 () in
  set_param s "Person1" person;
  match Session.run_script s Queries.q_knows_plus with
  | [ (_, Script_exec.O_subgraph sg) ] ->
      let g = Db.graph (Session.db s) in
      let vset = Graph_store.find_vset_exn g "Person" in
      let engine =
        List.sort compare
          (List.map (Vset.key_string vset) (Subgraph.vertex_list sg ~vtype:"Person"))
      in
      (* The captured subgraph holds the start, every endpoint, and the
         traversed edges' endpoints — for a one-atom [+] body that is
         exactly {start} ∪ closure. *)
      let oracle =
        List.sort_uniq compare
          (person :: Reference.knows_plus ~scale:1 ~person ())
      in
      check_ids "subgraph person set" oracle engine;
      check "edges captured" true (Subgraph.total_edges sg > 0)
  | _ -> Alcotest.fail "expected one subgraph"

let () =
  Alcotest.run "snb"
    [
      ( "load",
        [
          Alcotest.test_case "generator determinism" `Quick
            test_generator_deterministic;
          Alcotest.test_case "ingest counts" `Quick test_ingest_counts;
        ] );
      ( "traversals-vs-oracles",
        [
          Alcotest.test_case "knows closure" `Quick test_knows_plus_vs_oracle;
          Alcotest.test_case "two-atom closure" `Quick
            test_knows_knows_plus_vs_oracle;
          Alcotest.test_case "reply chains" `Quick test_reply_chain_vs_oracle;
          Alcotest.test_case "thread roots" `Quick test_thread_root_vs_oracle;
        ] );
      ( "engine-parity",
        [
          Alcotest.test_case "automaton = closure, byte-identical" `Quick
            test_engines_byte_identical;
          Alcotest.test_case "domain-count invariance" `Slow
            test_domain_count_invariance;
          Alcotest.test_case "noted edges and counters, SF8" `Slow
            test_noted_edges_pinned;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "all scripts run" `Quick test_scripts_end_to_end;
          Alcotest.test_case "knows+ subgraph vs oracle" `Quick
            test_knows_plus_subgraph_matches_oracle;
        ] );
    ]
