(* End-to-end engine tests over a small social graph with known answers. *)

module Db = Graql_engine.Db
module Ddl_exec = Graql_engine.Ddl_exec
module Script_exec = Graql_engine.Script_exec
module Path_exec = Graql_engine.Path_exec
module Parser = Graql_lang.Parser
module Ast = Graql_lang.Ast
module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Subgraph = Graql_graph.Subgraph
module Graph_store = Graql_graph.Graph_store
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str_list = Alcotest.(check (list string))

let csvs =
  [
    ( "users.csv",
      "id,name,age,city\n\
       u1,ada,30,rome\nu2,bob,25,rome\nu3,cyd,35,paris\nu4,dan,40,paris\nu5,eve,20,oslo\n" );
    ( "follows.csv",
      "src,dst,weight\n\
       u1,u2,5\nu2,u1,3\nu2,u3,4\nu3,u2,1\nu3,u4,2\nu4,u5,9\nu1,u3,7\n" );
    ("posts.csv", "id,author,likes\np1,u1,10\np2,u1,3\np3,u2,5\np4,u4,8\n");
  ]

let schema_script =
  {|
create table Users(id varchar(8), name varchar(16), age integer, city varchar(8))
create table Follows(src varchar(8), dst varchar(8), weight integer)
create table Posts(id varchar(8), author varchar(8), likes integer)

create vertex UserVtx(id) from table Users
create vertex PostVtx(id) from table Posts
create vertex CityVtx(city) from table Users

create edge follows with vertices (UserVtx as A, UserVtx as B)
  from table Follows
  where Follows.src = A.id and Follows.dst = B.id

create edge wrote with vertices (UserVtx, PostVtx)
  where PostVtx.author = UserVtx.id

create edge livesIn with vertices (UserVtx, CityVtx)
  where UserVtx.city = CityVtx.city

ingest table Users users.csv
ingest table Follows follows.csv
ingest table Posts posts.csv
|}

let loader name = List.assoc name csvs

let fresh_db ?pool () =
  let db = Db.create ?pool () in
  Ddl_exec.install db;
  ignore
    (Script_exec.exec_script ~loader ~parallel:false db
       (Parser.parse_script schema_script));
  db

let run_one db src =
  match Script_exec.exec_stmt ~loader db (Parser.parse_statement src) with
  | outcome -> outcome

let run_table db src =
  match run_one db src with
  | Script_exec.O_table t -> t
  | _ -> Alcotest.fail "expected table outcome"

let run_subgraph db src =
  match run_one db src with
  | Script_exec.O_subgraph sg -> sg
  | _ -> Alcotest.fail "expected subgraph outcome"

let col_strings t name =
  List.init (Table.nrows t) (fun i ->
      Value.to_string (Table.get_by_name t ~row:i name))

(* ------------------------------------------------------------------ *)
(* DDL + ingest                                                        *)

let test_graph_built () =
  let db = fresh_db () in
  let g = Db.graph db in
  check_int "users" 5 (Vset.size (Graph_store.find_vset_exn g "UserVtx"));
  check_int "posts" 4 (Vset.size (Graph_store.find_vset_exn g "PostVtx"));
  check_int "cities" 3 (Vset.size (Graph_store.find_vset_exn g "CityVtx"));
  check_int "follows" 7 (Eset.size (Graph_store.find_eset_exn g "follows"));
  check_int "wrote" 4 (Eset.size (Graph_store.find_eset_exn g "wrote"));
  (* many-to-one livesIn edges dedupe to one per (user, city) *)
  check_int "livesIn" 5 (Eset.size (Graph_store.find_eset_exn g "livesIn"))

let test_ingest_rebuilds_views () =
  let db = fresh_db () in
  let g = Db.graph db in
  check_int "before" 5 (Vset.size (Graph_store.find_vset_exn g "UserVtx"));
  let loader _ = "id,name,age,city\nu6,fay,28,rome\n" in
  ignore
    (Script_exec.exec_stmt ~loader db
       (Parser.parse_statement "ingest table Users more.csv"));
  let g = Db.graph db in
  check_int "after ingest" 6 (Vset.size (Graph_store.find_vset_exn g "UserVtx"));
  (* u6 lives in rome: livesIn edge appears without re-declaring anything *)
  check_int "livesIn grew" 6 (Eset.size (Graph_store.find_eset_exn g "livesIn"))

let test_ingest_atomic_on_error () =
  let db = fresh_db () in
  let before = Table.nrows (Db.find_table_exn db "Users") in
  let loader _ = "id,name,age,city\nu7,gil,notanint,rome\n" in
  (match
     Script_exec.exec_stmt ~loader db
       (Parser.parse_statement "ingest table Users bad.csv")
   with
  | _ -> Alcotest.fail "expected ingest failure"
  | exception Script_exec.Script_error (_, msg) ->
      check "describes the cell" true
        (String.length msg > 0
        && String.length msg > 10));
  check_int "no partial rows" before (Table.nrows (Db.find_table_exn db "Users"))

let test_selective_view_maintenance () =
  let db = fresh_db () in
  let g1 = Db.graph db in
  (* Append one post: only Posts-dependent views may rebuild. *)
  let loader _ = "id,author,likes\np5,u1,2\n" in
  ignore
    (Script_exec.exec_stmt ~loader db
       (Parser.parse_statement "ingest table Posts more.csv"));
  let g2 = Db.graph db in
  check "UserVtx reused" true
    (Graph_store.find_vset_exn g1 "UserVtx" == Graph_store.find_vset_exn g2 "UserVtx");
  check "CityVtx reused" true
    (Graph_store.find_vset_exn g1 "CityVtx" == Graph_store.find_vset_exn g2 "CityVtx");
  check "follows reused" true
    (Graph_store.find_eset_exn g1 "follows" == Graph_store.find_eset_exn g2 "follows");
  check "livesIn reused" true
    (Graph_store.find_eset_exn g1 "livesIn" == Graph_store.find_eset_exn g2 "livesIn");
  check "PostVtx rebuilt" true
    (not (Graph_store.find_vset_exn g1 "PostVtx" == Graph_store.find_vset_exn g2 "PostVtx"));
  check_int "wrote grew" 5 (Eset.size (Graph_store.find_eset_exn g2 "wrote"));
  (* The selective build equals a from-scratch build. *)
  Db.set_view_fingerprints db [];
  Db.invalidate_graph db;
  let fresh = Db.graph db in
  List.iter
    (fun name ->
      check_int (name ^ " size matches full rebuild")
        (Vset.size (Graph_store.find_vset_exn fresh name))
        (Vset.size (Graph_store.find_vset_exn g2 name)))
    [ "UserVtx"; "PostVtx"; "CityVtx" ];
  List.iter
    (fun name ->
      let a = Graph_store.find_eset_exn fresh name in
      let b = Graph_store.find_eset_exn g2 name in
      check_int (name ^ " edges match") (Eset.size a) (Eset.size b);
      for e = 0 to Eset.size a - 1 do
        if Eset.src a e <> Eset.src b e || Eset.dst a e <> Eset.dst b e then
          Alcotest.failf "%s edge %d differs between selective and full" name e
      done)
    [ "follows"; "wrote"; "livesIn" ]

let test_edge_deps () =
  let db = fresh_db () in
  let dep_of name =
    let ed = List.find (fun (e : Db.edge_def) -> e.Db.ed_name = name) (Db.edge_defs db) in
    Ddl_exec.edge_deps db ed
  in
  check "follows deps" true (dep_of "follows" = [ "follows"; "users" ]);
  check "wrote deps" true (dep_of "wrote" = [ "posts"; "users" ]);
  check "livesIn deps" true (dep_of "livesIn" = [ "users" ])

let test_edge_ddl_error_paths () =
  let db = fresh_db () in
  (* Build lazily: errors surface when the graph is first accessed. *)
  let fresh_with_edge edge =
    let d = fresh_db () in
    ignore (run_one d edge);
    d
  in
  (* Self-edge without aliases: qualifying by the type name is ambiguous. *)
  let d =
    fresh_with_edge
      {|create edge loops with vertices (UserVtx, UserVtx)
        where UserVtx.id = UserVtx.name|}
  in
  (match Db.graph d with
  | _ -> Alcotest.fail "expected ambiguity error"
  | exception Graql_engine.Ddl_exec.Ddl_error (_, msg) ->
      check "mentions aliases" true
        (let n = String.length msg in
         n > 0 && String.sub msg (n - String.length "use 'as' aliases")
                    (String.length "use 'as' aliases") = "use 'as' aliases"));
  (* A where clause that never determines an endpoint key. *)
  let d2 =
    fresh_with_edge
      {|create edge broken with vertices (UserVtx as A, PostVtx as B)
        where A.age > 3|}
  in
  (match Db.graph d2 with
  | _ -> Alcotest.fail "expected key determination error"
  | exception Graql_engine.Ddl_exec.Ddl_error (_, msg) ->
      check "mentions the key" true
        (let frag = "never determines key" in
         let n = String.length frag in
         let rec go i =
           i + n <= String.length msg
           && (String.sub msg i n = frag || go (i + 1))
         in
         go 0));
  (* Disconnected multi-table join. *)
  let d3 =
    fresh_with_edge
      {|create edge disc with vertices (UserVtx as A, PostVtx as B)
        where A.id = Follows.src and B.id = Posts.id and A.age > Users.age|}
  in
  (match Db.graph d3 with
  | _ -> ()
  | exception Graql_engine.Ddl_exec.Ddl_error _ -> ());
  ignore db

let test_create_duplicate_table () =
  let db = fresh_db () in
  match run_one db "create table Users(id integer)" with
  | _ -> Alcotest.fail "expected duplicate error"
  | exception Script_exec.Script_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Basic path queries                                                  *)

let test_forward_step () =
  let db = fresh_db () in
  let t =
    run_table db "select B.id from graph UserVtx (id = 'u1') --follows--> def B: UserVtx ( )"
  in
  check_str_list "u1 follows" [ "u2"; "u3" ] (List.sort compare (col_strings t "id"))

let test_reverse_step () =
  let db = fresh_db () in
  let t =
    run_table db "select A.id from graph UserVtx (id = 'u2') <--follows-- def A: UserVtx ( )"
  in
  check_str_list "followers of u2" [ "u1"; "u3" ]
    (List.sort compare (col_strings t "id"))

let test_vertex_condition_mid_path () =
  let db = fresh_db () in
  let t =
    run_table db
      "select B.id from graph UserVtx (id = 'u1') --follows--> def B: UserVtx (age > 30)"
  in
  check_str_list "only cyd" [ "u3" ] (col_strings t "id")

let test_edge_condition () =
  let db = fresh_db () in
  let t =
    run_table db
      "select B.id from graph UserVtx (id = 'u1') --follows(weight > 5)--> def B: UserVtx ( )"
  in
  check_str_list "heavy edge only" [ "u3" ] (col_strings t "id")

let test_label_attr_in_condition () =
  let db = fresh_db () in
  (* Followees older than the follower. *)
  let t =
    run_table db
      {|select B.id from graph def A: UserVtx (id = 'u2') --follows-->
          def B: UserVtx (age > A.age)|}
  in
  check_str_list "older followees" [ "u1"; "u3" ]
    (List.sort compare (col_strings t "id"))

let test_empty_result () =
  let db = fresh_db () in
  let t =
    run_table db "select B.id from graph UserVtx (id = 'u5') --follows--> def B: UserVtx ( )"
  in
  check_int "u5 follows nobody" 0 (Table.nrows t)

let test_unknown_param_errors () =
  let db = fresh_db () in
  match run_one db "select B.id from graph UserVtx (id = %Nope%) --follows--> def B: UserVtx" with
  | _ -> Alcotest.fail "expected unbound param error"
  | exception Script_exec.Script_error (_, msg) ->
      check "names the param" true
        (msg = "unbound parameter %Nope%")

let test_three_hops () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select C.id from graph UserVtx (id = 'u1') --follows--> UserVtx ( )
          --follows--> UserVtx ( ) --follows--> def C: UserVtx ( )|}
  in
  (* u1->u2->u1->{u2,u3}, u1->u2->u3->{u2,u4}, u1->u3->u2->{u1,u3}, u1->u3->u4->u5 *)
  check_str_list "3-hop endpoints (bag)"
    [ "u1"; "u2"; "u2"; "u3"; "u3"; "u4"; "u5" ]
    (List.sort compare (col_strings t "id"))

(* ------------------------------------------------------------------ *)
(* Labels: set vs element-wise (Eq. 6 vs Eq. 8)                        *)

let test_foreach_matches_only_cycles () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select x.id from graph foreach x: UserVtx ( ) --follows--> UserVtx ( )
          --follows--> x|}
  in
  (* 2-cycles only: u1<->u2 and u2<->u3. *)
  check_str_list "cycle heads" [ "u1"; "u2"; "u2"; "u3" ]
    (List.sort compare (col_strings t "id"))

let test_set_label_superset_of_foreach () =
  let db = fresh_db () in
  let def_rows =
    Table.nrows
      (run_table db
         {|select X.id from graph def X: UserVtx ( ) --follows--> UserVtx ( )
             --follows--> X|})
  in
  let each_rows =
    Table.nrows
      (run_table db
         {|select x.id from graph foreach x: UserVtx ( ) --follows--> UserVtx ( )
             --follows--> x|})
  in
  check_int "foreach count" 4 each_rows;
  check_int "set-label count" 10 def_rows;
  check "set is superset" true (def_rows > each_rows)

let test_edge_label_in_targets () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select E.weight as w from graph UserVtx (id = 'u1')
          --def E: follows--> UserVtx ( )|}
  in
  check_str_list "edge attrs via label" [ "5"; "7" ]
    (List.sort compare (col_strings t "w"))

let test_edge_label_in_condition () =
  let db = fresh_db () in
  (* Two-hop walks with strictly increasing edge weight. *)
  let t =
    run_table db
      {|select C.id from graph UserVtx ( ) --def E: follows--> UserVtx ( )
          --follows(weight > E.weight)--> def C: UserVtx ( )|}
  in
  check_int "increasing-weight walks" 5 (Table.nrows t)

let test_edge_label_in_star_flatten () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select * from graph UserVtx (id = 'u4') --def F: wrote--> PostVtx ( )
        into table flatF|}
  in
  check "labeled edge column prefix" true
    (Graql_storage.Schema.find (Table.schema t) "F.author" <> None);
  check "edge attr value" true
    (Table.get_by_name t ~row:0 "F.author" = Value.Str "u4")

(* ------------------------------------------------------------------ *)
(* Multi-path composition                                              *)

let test_and_composition_join () =
  let db = fresh_db () in
  (* Users who follow someone AND wrote a post; one row per
     (follow edge, post) pair via the shared foreach label. *)
  let t =
    run_table db
      {|select u.id, PostVtx.id as post from graph
          (foreach u: UserVtx ( ) --follows--> UserVtx ( ))
        and
          (u --wrote--> PostVtx ( ))|}
  in
  (* u1: 2 followees x 2 posts = 4; u2: 2 x 1 = 2; u3: 0 posts; u4: 1 x 1 = 1 *)
  check_int "join multiplicity" 7 (Table.nrows t);
  let pairs =
    List.sort compare
      (List.init (Table.nrows t) (fun i ->
           ( Value.to_string (Table.get_by_name t ~row:i "id"),
             Value.to_string (Table.get_by_name t ~row:i "post") )))
  in
  check "u4 pair present" true (List.mem ("u4", "p4") pairs);
  check "u3 absent" true (not (List.exists (fun (u, _) -> u = "u3") pairs))

let test_or_composition_union () =
  let db = fresh_db () in
  let sg =
    run_subgraph db
      {|select * from graph UserVtx (id = 'u1') --follows--> UserVtx ( )
        or UserVtx (id = 'u4') --follows--> UserVtx ( )
        into subgraph either|}
  in
  check "u2 u3 u5 and heads" true
    (List.length (Subgraph.vertex_list sg ~vtype:"UserVtx") = 5);
  check_int "edges from both" 3 (Subgraph.total_edges sg)

let test_and_without_shared_label_fails () =
  let db = fresh_db () in
  match
    run_one db
      {|select * from graph (UserVtx --follows--> UserVtx)
        and (UserVtx --wrote--> PostVtx) into subgraph G|}
  with
  | _ -> Alcotest.fail "expected shared-label error"
  | exception Script_exec.Script_error (_, msg) ->
      check "mentions label" true
        (msg = "'and' composition requires a shared label between the operands")

(* ------------------------------------------------------------------ *)
(* Type matching and regexes                                           *)

let test_variant_edge_step () =
  let db = fresh_db () in
  let sg =
    run_subgraph db
      "select * from graph UserVtx (id = 'u1') --[ ]--> [ ] into subgraph out1"
  in
  (* u1: follows u2,u3; wrote p1,p2; livesIn rome = 5 edges, 5+1 vertices *)
  check_int "vertices" 6 (Subgraph.total_vertices sg);
  check_int "edges" 5 (Subgraph.total_edges sg)

let test_variant_constrained_by_next_type () =
  let db = fresh_db () in
  let t =
    run_table db
      "select P.id from graph UserVtx (id = 'u1') --[ ]--> def P: PostVtx ( )"
  in
  check_str_list "only posts" [ "p1"; "p2" ] (List.sort compare (col_strings t "id"))

let test_regex_plus_cycles_terminate () =
  let db = fresh_db () in
  (* The follows graph has cycles; closure must terminate. *)
  let sg =
    run_subgraph db
      "select * from graph UserVtx (id = 'u1') ( --follows--> [ ] )+ into subgraph reach"
  in
  (* From u1 everything is reachable: u2,u3 then u1,u4, then u5. *)
  check_int "reachable users" 5
    (List.length (Subgraph.vertex_list sg ~vtype:"UserVtx"))

let test_regex_star_includes_start () =
  let db = fresh_db () in
  let sg =
    run_subgraph db
      "select * from graph UserVtx (id = 'u5') ( --follows--> [ ] )* into subgraph r5"
  in
  (* u5 has no out-edges: star still matches zero repetitions. *)
  check "start included" true (Subgraph.vertex_list sg ~vtype:"UserVtx" <> [])

let test_regex_exact_count () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select E.id from graph UserVtx (id = 'u3') ( --follows--> [ ] ){3}
          --wrote--> def E: PostVtx ( )|}
  in
  (* 3 hops from u3: u3->u2->u1->{u2,u3}, u3->u2->u3->{u2,u4}, u3->u4->u5->X.
     Then wrote: u2 -> p3 (x2 paths to u2? u2 reached at level 3 via u1 and
     via u3: level sets dedupe per level => one u2), u4 -> p4. *)
  check_str_list "posts 3 hops out" [ "p3"; "p4" ]
    (List.sort compare (col_strings t "id"))

let test_regex_zero_count () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select B.id from graph UserVtx (id = 'u1') ( --follows--> [ ] ){0}
          --follows--> def B: UserVtx ( )|}
  in
  check_str_list "zero reps = stay" [ "u2"; "u3" ]
    (List.sort compare (col_strings t "id"))

let test_regex_with_condition_inside () =
  let db = fresh_db () in
  let sg =
    run_subgraph db
      {|select * from graph UserVtx (id = 'u1')
          ( --follows(weight > 3)--> UserVtx ( ) )+ into subgraph heavy|}
  in
  (* heavy edges: u1->u2 (5), u2->u3 (4), u4->u5 (9), u1->u3 (7).
     From u1: u2, u3; from u2: u3. No heavy edge out of u3. *)
  check_int "heavy reach" 3
    (List.length (Subgraph.vertex_list sg ~vtype:"UserVtx"))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

let test_into_subgraph_star_captures_edges () =
  let db = fresh_db () in
  let sg =
    run_subgraph db
      "select * from graph UserVtx (id = 'u1') --follows--> UserVtx ( ) into subgraph g1"
  in
  check_int "vertices" 3 (Subgraph.total_vertices sg);
  check_int "edges" 2 (Subgraph.total_edges sg);
  check "edge type" true (Subgraph.etypes sg = [ "follows" ])

let test_into_subgraph_endpoints_only () =
  let db = fresh_db () in
  let sg =
    run_subgraph db
      {|select PostVtx from graph UserVtx (id = 'u1') --wrote--> PostVtx ( )
        into subgraph posts1|}
  in
  check_int "only post endpoints" 2 (Subgraph.total_vertices sg);
  check_int "no edges" 0 (Subgraph.total_edges sg);
  check "only post type" true (Subgraph.vtypes sg = [ "postvtx" ])

let test_select_star_into_table_flattens () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select * from graph UserVtx (id = 'u1') --wrote--> PostVtx ( )
        into table flat|}
  in
  (* Users (4 cols) + wrote attrs (Posts driving: 3 cols) + Posts (3 cols) *)
  check_int "flattened arity" 10 (Table.arity t);
  check_int "two rows" 2 (Table.nrows t);
  let schema = Table.schema t in
  check "prefixed names" true
    (Graql_storage.Schema.find schema "UserVtx.id" <> None
    && Graql_storage.Schema.find schema "PostVtx.likes" <> None);
  (* and the follow-up table select can read the dotted columns *)
  let s =
    run_table db
      "select count(*) as n, sum(PostVtx.likes) as total from table flat"
  in
  check "post-processing" true
    (Table.get_by_name s ~row:0 "total" = Value.Int 13)

let test_seeded_query () =
  let db = fresh_db () in
  ignore
    (run_one db
       {|select UserVtx from graph UserVtx ( ) --livesIn--> CityVtx (city = 'rome')
         into subgraph romans|});
  let t =
    run_table db
      "select P.id from graph romans.UserVtx ( ) --wrote--> def P: PostVtx ( )"
  in
  (* romans = u1, u2 (u6 absent here); their posts: p1 p2 p3 *)
  check_str_list "roman posts" [ "p1"; "p2"; "p3" ]
    (List.sort compare (col_strings t "id"))

let test_seeded_with_condition () =
  let db = fresh_db () in
  ignore
    (run_one db
       "select UserVtx from graph UserVtx ( ) --follows--> UserVtx ( ) into subgraph f");
  let t =
    run_table db "select UserVtx.id from graph f.UserVtx (age > 30)"
  in
  check_str_list "filtered seed" [ "u3"; "u4" ]
    (List.sort compare (col_strings t "id"))

(* ------------------------------------------------------------------ *)
(* Table statements                                                    *)

let test_table_where_group_order_top () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select city, count(*) as n, avg(age) as avgAge from table Users
        where age >= 25 group by city order by n desc, city asc|}
  in
  check_int "rows" 2 (Table.nrows t);
  check "paris first (2 users >= 25)" true
    (Table.get_by_name t ~row:0 "city" = Value.Str "paris");
  check "avg age" true (Table.get_by_name t ~row:0 "avgAge" = Value.Float 37.5)

let test_table_top_without_order () =
  let db = fresh_db () in
  let t = run_table db "select top 2 id from table Users" in
  check_int "limit semantics" 2 (Table.nrows t)

let test_table_distinct () =
  let db = fresh_db () in
  let t = run_table db "select distinct city from table Users" in
  check_int "three cities" 3 (Table.nrows t)

let test_table_implicit_join () =
  let db = fresh_db () in
  let t =
    run_table db
      {|select name, likes from table Users as u, Posts as p
        where u.id = p.author order by likes desc|}
  in
  check_int "4 pairs" 4 (Table.nrows t);
  check "best post author" true (Table.get_by_name t ~row:0 "name" = Value.Str "ada")

let test_table_expression_targets () =
  let db = fresh_db () in
  let t =
    run_table db "select id, age * 2 as dbl from table Users where id = 'u1'"
  in
  check "computed col" true (Table.get_by_name t ~row:0 "dbl" = Value.Int 60)

let test_params_in_table_select () =
  let db = fresh_db () in
  ignore (run_one db "set %City% = 'rome'");
  let t = run_table db "select id from table Users where city = %City%" in
  check_int "two romans" 2 (Table.nrows t)

let test_global_aggregate_no_group () =
  let db = fresh_db () in
  let t = run_table db "select count(*) as n, max(age) as oldest from table Users" in
  check "count" true (Table.get_by_name t ~row:0 "n" = Value.Int 5);
  check "max" true (Table.get_by_name t ~row:0 "oldest" = Value.Int 40)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_planner_direction () =
  let db = fresh_db () in
  let params _ = None in
  let path_of src =
    match Parser.parse_statement src with
    | Ast.Select_graph { sg_path = Ast.M_path p; _ } -> p
    | _ -> Alcotest.fail "expected simple path"
  in
  let fwd =
    path_of "select * from graph UserVtx (id = 'u1') --follows--> UserVtx ( ) into subgraph g"
  in
  check "selective head stays forward" true
    (Path_exec.chosen_direction fwd ~db ~params = `Forward);
  let bwd =
    path_of "select * from graph UserVtx ( ) --follows--> UserVtx (id = 'u5') into subgraph g"
  in
  check "selective tail reverses" true
    (Path_exec.chosen_direction bwd ~db ~params = `Backward)

let test_reversal_preserves_results () =
  let db = fresh_db () in
  let params _ = None in
  let mp =
    match
      Parser.parse_statement
        {|select * from graph UserVtx ( ) --follows--> UserVtx ( )
            --wrote--> PostVtx (likes > 4) into subgraph g|}
    with
    | Ast.Select_graph { sg_path; _ } -> sg_path
    | _ -> assert false
  in
  let collect auto =
    let res =
      Path_exec.run_multipath ~db ~params ~mode:Path_exec.Keep_all
        ~auto_reverse:auto mp
    in
    match res.Path_exec.comps with
    | [ c ] ->
        (* Backward execution lays columns out in reverse; normalize by the
           display order before comparing. *)
        let order =
          List.sort
            (fun a b ->
              compare c.Path_exec.slots.(a).Path_exec.s_step
                c.Path_exec.slots.(b).Path_exec.s_step)
            (List.init (Array.length c.Path_exec.slots) Fun.id)
        in
        List.sort compare
          (Array.to_list
             (Array.map (fun row -> List.map (fun i -> row.(i)) order)
                c.Path_exec.rows))
    | _ -> Alcotest.fail "one component expected"
  in
  check "reversed run equals forward run" true (collect true = collect false)

(* ------------------------------------------------------------------ *)
(* Intermediate-result budget                                           *)

let test_cell_budget_enforced () =
  let db = fresh_db () in
  let mp =
    match
      Parser.parse_statement
        {|select * from graph UserVtx ( ) --follows--> UserVtx ( )
            --follows--> UserVtx ( ) into table Big|}
    with
    | Ast.Select_graph { sg_path; _ } -> sg_path
    | _ -> assert false
  in
  let run max_cells =
    Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Path_exec.Keep_all ~max_bytes:(8 * max_cells) mp
  in
  (* Generous budget: fine. *)
  ignore (run 1_000_000);
  (* Tiny budget: a clean, diagnosable error instead of blowing up. *)
  match run 10 with
  | _ -> Alcotest.fail "expected budget error"
  | exception Path_exec.Exec_error (_, msg) ->
      check "mentions the budget" true
        (String.length msg > 0 && String.sub msg 0 19 = "intermediate result")

(* ------------------------------------------------------------------ *)
(* Parallel frontier expansion                                          *)

let test_parallel_expansion_matches_serial () =
  (* Build a graph wide enough that the executor's parallel branch
     (frontier >= 2048 rows) actually runs: 60 users x 60 followees. *)
  let n = 60 in
  let users =
    "id,name,age,city\n"
    ^ String.concat ""
        (List.init n (fun i -> Printf.sprintf "w%d,u%d,%d,rome\n" i i (20 + (i mod 30))))
  in
  let follows =
    "src,dst,weight\n"
    ^ String.concat ""
        (List.concat_map
           (fun i ->
             List.init n (fun j ->
                 Printf.sprintf "w%d,w%d,%d\n" i j ((i + j) mod 10)))
           (List.init n Fun.id))
  in
  let loader = function
    | "users.csv" -> users
    | "follows.csv" -> follows
    | "posts.csv" -> "id,author,likes\n"
    | f -> raise (Sys_error f)
  in
  let run pool =
    let db = Db.create ?pool () in
    Ddl_exec.install db;
    ignore
      (Script_exec.exec_script ~loader ~parallel:false db
         (Parser.parse_script schema_script));
    let t =
      match
        Script_exec.exec_stmt db
          (Parser.parse_statement
             {|select C.id from graph UserVtx ( ) --follows--> UserVtx (age > 30)
                 --follows--> def C: UserVtx (age < 25) into table Wide|})
      with
      | Script_exec.O_table t -> t
      | _ -> Alcotest.fail "table expected"
    in
    List.sort compare (col_strings t "id")
  in
  let serial = run None in
  check "frontier is big enough to exercise the parallel branch" true
    (List.length serial > 2048);
  let pool = Graql_parallel.Domain_pool.create ~domains:4 () in
  let parallel = run (Some pool) in
  Graql_parallel.Domain_pool.shutdown pool;
  check "parallel expansion = serial" true (serial = parallel)

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)

module Explain = Graql_engine.Explain

let test_explain_plans () =
  let db = fresh_db () in
  let params _ = None in
  let mp src =
    match Parser.parse_statement src with
    | Ast.Select_graph { sg_path; _ } -> sg_path
    | _ -> assert false
  in
  (* Selective head: forward, key lookup seed. *)
  (match
     Explain.explain_multipath ~db ~params
       (mp "select * from graph UserVtx (id = 'u1') --follows--> UserVtx into subgraph G")
   with
  | [ plan ] ->
      check "forward" true (plan.Explain.pl_direction = `Forward);
      check "key seed" true
        (match plan.Explain.pl_seed with
        | Explain.Seed_key_lookup "u1" -> true
        | _ -> false);
      check "seed estimate 1" true (plan.Explain.pl_seed_estimate = 1.0);
      check_int "one step" 1 (List.length plan.Explain.pl_steps)
  | _ -> Alcotest.fail "one plan expected");
  (* Selective tail: planner reverses and the plan reports it. *)
  (match
     Explain.explain_multipath ~db ~params
       (mp "select * from graph UserVtx ( ) --follows--> UserVtx (id = 'u5') into subgraph G")
   with
  | [ plan ] ->
      check "backward" true (plan.Explain.pl_direction = `Backward);
      check "reversed seed is the tail" true
        (match plan.Explain.pl_seed with
        | Explain.Seed_key_lookup "u5" -> true
        | _ -> false)
  | _ -> Alcotest.fail "one plan expected");
  (* Multipath: one plan per operand. *)
  check_int "two plans" 2
    (List.length
       (Explain.explain_multipath ~db ~params
          (mp
             {|select * from graph (def u: UserVtx --follows--> UserVtx)
               and (u --wrote--> PostVtx) into subgraph G|})))

(* ------------------------------------------------------------------ *)
(* Export / reload                                                     *)

module Db_io = Graql_engine.Db_io

let test_export_reload_roundtrip () =
  let db = fresh_db () in
  ignore
    (run_one db
       {|select B.id from graph UserVtx (id = 'u1') --follows--> def B: UserVtx
         into table R1|});
  let files = Db_io.export_files db in
  let loader name =
    match List.assoc_opt name files with
    | Some doc -> doc
    | None -> raise (Sys_error name)
  in
  (* Reload from the dump into a fresh database. *)
  let db2 = Db.create () in
  Ddl_exec.install db2;
  ignore
    (Script_exec.exec_script ~loader ~parallel:false db2
       (Parser.parse_script (List.assoc "schema.graql" files)));
  (* Same table contents... *)
  List.iter
    (fun name ->
      let t1 = Db.find_table_exn db name and t2 = Db.find_table_exn db2 name in
      check_int (name ^ " rows") (Table.nrows t1) (Table.nrows t2);
      Table.iter_rows
        (fun i ->
          if Table.row t1 i <> Table.row t2 i then
            Alcotest.failf "%s row %d differs after reload" name i)
        t1)
    [ "Users"; "Follows"; "Posts"; "R1" ];
  (* ...and the same query answers on the rebuilt graph views. *)
  let q = "select B.id from graph UserVtx (id = 'u2') --follows--> def B: UserVtx ( )" in
  let t1 = run_table db q in
  let t2 =
    match Script_exec.exec_stmt db2 (Parser.parse_statement q) with
    | Script_exec.O_table t -> t
    | _ -> Alcotest.fail "table expected"
  in
  check "same answers after reload" true
    (List.sort compare (col_strings t1 "id")
    = List.sort compare (col_strings t2 "id"))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "graql_export" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_export_manifest_verifies () =
  let db = fresh_db () in
  with_temp_dir (fun dir ->
      Db_io.export db ~dir;
      check "manifest written" true
        (Sys.file_exists (Filename.concat dir Db_io.manifest_name));
      (* No stray temp files: everything on disk is either the manifest or
         listed in it. *)
      let listed =
        List.map fst (Db_io.export_files db) @ [ Db_io.manifest_name ]
      in
      Array.iter
        (fun f -> check (f ^ " accounted for") true (List.mem f listed))
        (Sys.readdir dir);
      check "clean verify" true (Db_io.verify ~dir = []);
      (* The checking loader serves intact files... *)
      let loader = Db_io.checked_loader ~dir in
      check "loader serves schema" true
        (String.length (loader "schema.graql") > 0);
      (* ...and refuses corrupted ones. *)
      let victim = Filename.concat dir "users.csv" in
      let oc = open_out_gen [ Open_append ] 0o644 victim in
      output_string oc "tampered\n";
      close_out oc;
      (match Db_io.verify ~dir with
      | [ (name, _) ] -> Alcotest.(check string) "names victim" "users.csv" name
      | problems ->
          Alcotest.failf "expected exactly one problem, got %d"
            (List.length problems));
      match Db_io.checked_loader ~dir "users.csv" with
      | _ -> Alcotest.fail "expected integrity failure"
      | exception Graql_engine.Graql_error.Error (Graql_engine.Graql_error.Io _)
        ->
          ())

let test_export_manifest_checksum_catches_same_size () =
  let db = fresh_db () in
  with_temp_dir (fun dir ->
      Db_io.export db ~dir;
      (* Same-size corruption: flip one byte so only the checksum can tell. *)
      let victim = Filename.concat dir "users.csv" in
      let ic = open_in_bin victim in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string doc in
      Bytes.set b (Bytes.length b - 2)
        (if Bytes.get b (Bytes.length b - 2) = 'x' then 'y' else 'x');
      let oc = open_out_bin victim in
      output_bytes oc b;
      close_out oc;
      match Db_io.verify ~dir with
      | [ ("users.csv", reason) ] ->
          check "checksum mismatch reported" true
            (String.length reason > 0)
      | _ -> Alcotest.fail "expected checksum mismatch")

(* ------------------------------------------------------------------ *)
(* Script scheduling                                                   *)

let test_dependence_edges () =
  let script =
    Parser.parse_script
      {|create table A(x integer)
        ingest table A a.csv
        select x from table A into table B
        select x from table A into table C
        select x from table B into table D|}
  in
  let edges = Script_exec.dependence_edges ~view_reads:(fun _ -> false) script in
  let dep i j = List.mem (i, j) edges in
  check "ingest after create" true (dep 0 1);
  check "select after ingest" true (dep 1 2);
  check "D after B" true (dep 2 4);
  check "independent selects unordered" false (dep 2 3 || dep 3 2);
  (* Table creation order is catalog (and export) order: the WAL must log
     it as it happens. *)
  check "create tables ordered" true
    (List.mem (0, 1)
       (Script_exec.dependence_edges ~view_reads:(fun _ -> false)
          (Parser.parse_script "create table P(x integer) create table Q(y integer)")))

let test_parallel_script_equals_serial () =
  let pool = Graql_parallel.Domain_pool.create ~domains:4 () in
  let script =
    schema_script
    ^ {|
      select B.id from graph UserVtx (id = 'u1') --follows--> def B: UserVtx into table R1
      select A.id from graph UserVtx (id = 'u2') <--follows-- def A: UserVtx into table R2
      select city, count(*) as n from table Users group by city into table R3
      select id from table R1 order by id into table R1s
      |}
  in
  let run parallel =
    let db = Db.create ~pool () in
    Ddl_exec.install db;
    ignore (Script_exec.exec_script ~loader ~parallel db (Parser.parse_script script));
    List.map
      (fun name ->
        let t = Db.find_table_exn db name in
        List.init (Table.nrows t) (fun i ->
            Array.to_list (Array.map Value.to_string (Table.row t i))))
      [ "R1"; "R2"; "R3"; "R1s" ]
  in
  let serial = run false and parallel = run true in
  Graql_parallel.Domain_pool.shutdown pool;
  check "identical outputs" true (serial = parallel)

let () =
  Alcotest.run "engine"
    [
      ( "ddl-ingest",
        [
          Alcotest.test_case "views built" `Quick test_graph_built;
          Alcotest.test_case "ingest rebuilds views" `Quick test_ingest_rebuilds_views;
          Alcotest.test_case "ingest is atomic" `Quick test_ingest_atomic_on_error;
          Alcotest.test_case "selective maintenance" `Quick
            test_selective_view_maintenance;
          Alcotest.test_case "edge dependencies" `Quick test_edge_deps;
          Alcotest.test_case "edge DDL error paths" `Quick test_edge_ddl_error_paths;
          Alcotest.test_case "duplicate table" `Quick test_create_duplicate_table;
        ] );
      ( "paths",
        [
          Alcotest.test_case "forward step" `Quick test_forward_step;
          Alcotest.test_case "reverse step" `Quick test_reverse_step;
          Alcotest.test_case "vertex condition" `Quick test_vertex_condition_mid_path;
          Alcotest.test_case "edge condition" `Quick test_edge_condition;
          Alcotest.test_case "label attr in condition" `Quick
            test_label_attr_in_condition;
          Alcotest.test_case "empty result" `Quick test_empty_result;
          Alcotest.test_case "unbound parameter" `Quick test_unknown_param_errors;
          Alcotest.test_case "three hops (bag semantics)" `Quick test_three_hops;
        ] );
      ( "labels",
        [
          Alcotest.test_case "foreach = cycles only" `Quick
            test_foreach_matches_only_cycles;
          Alcotest.test_case "set label is superset" `Quick
            test_set_label_superset_of_foreach;
          Alcotest.test_case "edge label in targets" `Quick
            test_edge_label_in_targets;
          Alcotest.test_case "edge label in condition" `Quick
            test_edge_label_in_condition;
          Alcotest.test_case "edge label in select *" `Quick
            test_edge_label_in_star_flatten;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "and joins on label" `Quick test_and_composition_join;
          Alcotest.test_case "or unions" `Quick test_or_composition_union;
          Alcotest.test_case "and needs shared label" `Quick
            test_and_without_shared_label_fails;
        ] );
      ( "variant-regex",
        [
          Alcotest.test_case "variant edge step" `Quick test_variant_edge_step;
          Alcotest.test_case "variant constrained by type" `Quick
            test_variant_constrained_by_next_type;
          Alcotest.test_case "plus over cycles" `Quick test_regex_plus_cycles_terminate;
          Alcotest.test_case "star includes start" `Quick test_regex_star_includes_start;
          Alcotest.test_case "exact {n}" `Quick test_regex_exact_count;
          Alcotest.test_case "{0} is identity" `Quick test_regex_zero_count;
          Alcotest.test_case "condition inside regex" `Quick
            test_regex_with_condition_inside;
        ] );
      ( "results",
        [
          Alcotest.test_case "subgraph * captures edges" `Quick
            test_into_subgraph_star_captures_edges;
          Alcotest.test_case "endpoint capture" `Quick test_into_subgraph_endpoints_only;
          Alcotest.test_case "select * flattens" `Quick
            test_select_star_into_table_flattens;
          Alcotest.test_case "seeded query" `Quick test_seeded_query;
          Alcotest.test_case "seeded with condition" `Quick test_seeded_with_condition;
        ] );
      ( "table-statements",
        [
          Alcotest.test_case "where/group/order" `Quick test_table_where_group_order_top;
          Alcotest.test_case "top without order" `Quick test_table_top_without_order;
          Alcotest.test_case "distinct" `Quick test_table_distinct;
          Alcotest.test_case "implicit join" `Quick test_table_implicit_join;
          Alcotest.test_case "expression targets" `Quick test_table_expression_targets;
          Alcotest.test_case "parameters" `Quick test_params_in_table_select;
          Alcotest.test_case "global aggregates" `Quick test_global_aggregate_no_group;
        ] );
      ( "planner",
        [
          Alcotest.test_case "direction choice" `Quick test_planner_direction;
          Alcotest.test_case "reversal preserves results" `Quick
            test_reversal_preserves_results;
        ] );
      ( "budget",
        [ Alcotest.test_case "cell budget enforced" `Quick test_cell_budget_enforced ] );
      ( "parallel-expansion",
        [
          Alcotest.test_case "pool = serial results" `Quick
            test_parallel_expansion_matches_serial;
        ] );
      ( "explain-export",
        [
          Alcotest.test_case "explain plans" `Quick test_explain_plans;
          Alcotest.test_case "export/reload roundtrip" `Quick
            test_export_reload_roundtrip;
          Alcotest.test_case "export manifest verifies" `Quick
            test_export_manifest_verifies;
          Alcotest.test_case "manifest catches same-size corruption" `Quick
            test_export_manifest_checksum_catches_same_size;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "dependence edges" `Quick test_dependence_edges;
          Alcotest.test_case "parallel = serial" `Quick
            test_parallel_script_equals_serial;
        ] );
    ]
