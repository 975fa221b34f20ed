(* View maintenance (DESIGN.md §5): a graph kept up to date by extending
   its views with appended rows must equal the graph built from row 0
   over the same tables, at any domain count and after WAL recovery.

   Seeded random sequences of small ingests (and parameter changes) run
   over Berlin, SNB and a small schema that has every kind of view:
   many-to-one vertex types (one of them driving an edge), a vertex type
   that turns many-to-one, associated-table edges, an edge driven by an
   endpoint's own table, a multi-way join edge (Fig. 4), where clauses
   reading parameters, and keys that only resolve after a later ingest.
   After every step the maintained graph is compared with a full rebuild
   of the same state: vertex keys, the key index, attribute rows, edge
   endpoints and attribute rows, both CSRs and the degree statistics. *)

module Session = Graql_gems.Session
module Db = Graql_engine.Db
module Db_io = Graql_engine.Db_io
module Ddl_exec = Graql_engine.Ddl_exec
module Script_exec = Graql_engine.Script_exec
module Graql_error = Graql_engine.Graql_error
module Table = Graql_storage.Table
module Schema = Graql_storage.Schema
module Value = Graql_storage.Value
module Dtype = Graql_storage.Dtype
module Csv = Graql_storage.Csv
module Graph_store = Graql_graph.Graph_store
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr
module Degree_stats = Graql_graph.Degree_stats
module Subgraph = Graql_graph.Subgraph
module Metrics = Graql_obs.Metrics
module Pool = Graql_parallel.Domain_pool
module Berlin_gen = Graql_berlin.Berlin_gen
module Snb_gen = Graql_snb.Snb_gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- the graph, rendered ---------- *)

let dump_csr b what csr =
  Printf.bprintf b " %s n=%d m=%d\n" what (Csr.nvertices csr) (Csr.nedges csr);
  for v = 0 to Csr.nvertices csr - 1 do
    Csr.iter_neighbors csr v (fun ~dst ~eid -> Printf.bprintf b "%d>%d#%d " v dst eid)
  done;
  Printf.bprintf b "\n %s\n" (Degree_stats.to_string (Degree_stats.of_csr csr))

let dump g =
  let b = Buffer.create 65536 in
  List.iter
    (fun name ->
      let v = Graph_store.find_vset_exn g name in
      Printf.bprintf b "vertex %s size=%d one_to_one=%b attr_table_rows=%d\n"
        name (Vset.size v) (Vset.one_to_one v)
        (Table.nrows (Vset.attr_table v));
      for i = 0 to Vset.size v - 1 do
        let key = Vset.key_of_values (Vset.key_values v i) in
        let found =
          match Vset.find_by_key_string v key with Some j -> j | None -> -1
        in
        Printf.bprintf b "%d:%s=>%d@%d[%s] " i (Vset.key_string v i) found
          (Vset.attr_row v i)
          (String.concat "|"
             (Array.to_list
                (Array.map Value.to_string
                   (Table.row (Vset.attr_table v) (Vset.attr_row v i)))))
      done;
      Buffer.add_char b '\n')
    (Graph_store.vset_names g);
  List.iter
    (fun name ->
      let e = Graph_store.find_eset_exn g name in
      Printf.bprintf b "edge %s size=%d rows_seen=%d dropped=%d/%d dedupe=%b\n"
        name (Eset.size e) (Eset.rows_seen e) (Eset.dropped_src e)
        (Eset.dropped_dst e) (Eset.dedupe e);
      for i = 0 to Eset.size e - 1 do
        Printf.bprintf b "%d:%d>%d@%d " i (Eset.src e i) (Eset.dst e i)
          (Eset.attr_row e i)
      done;
      Buffer.add_char b '\n';
      dump_csr b "forward" (Eset.forward e);
      dump_csr b "reverse" (Eset.reverse e))
    (Graph_store.eset_names g);
  Buffer.contents b

(* Every view built again from row 0 over the same tables. *)
let full_rebuild db =
  Db.set_view_fingerprints db [];
  Db.invalidate_graph db;
  Db.graph db

(* ---------- random ingests ---------- *)

(* Rows modelled on the table's own: a fresh id (in a table listed in
   [dups], now and then one that repeats an existing id), and now and
   then a reference to an id that a later ingest may create, or a Null.
   A repeated id turns a vertex type many-to-one, which hides its
   non-key attributes from the edges that read them: only tables whose
   vertex type no edge reads that way take repeats. *)
let gen_csv rng db ~dups ~table ~rows ~next_id =
  let t = Db.find_table_exn db table in
  let cols = Schema.cols (Table.schema t) in
  let fresh () =
    incr next_id;
    Printf.sprintf "z%d" !next_id
  in
  let field c (base : Value.t option) =
    let col = cols.(c) in
    let roll = Random.State.float rng 1.0 in
    match (col.Schema.dtype, base) with
    | Dtype.Varchar _, _ when col.Schema.name = "id" ->
        if List.mem table dups && roll < 0.1 && Table.nrows t > 0 then
          Value.to_csv_string
            (Table.get t ~row:(Random.State.int rng (Table.nrows t)) ~col:c)
        else fresh ()
    | Dtype.Varchar _, _ when roll < 0.15 ->
        Printf.sprintf "z%d" (!next_id + 1 + Random.State.int rng 6)
    | _, _ when roll < 0.2 -> ""
    | Dtype.Int, _ when roll < 0.6 -> string_of_int (Random.State.int rng 6)
    | _, Some v -> Value.to_csv_string v
    | Dtype.Varchar _, None -> fresh ()
    | Dtype.Int, None -> "1"
    | _, None -> ""
  in
  let header = Array.to_list (Array.map (fun c -> c.Schema.name) cols) in
  let records =
    List.init rows (fun _ ->
        let base =
          if Table.nrows t = 0 then None
          else Some (Random.State.int rng (Table.nrows t))
        in
        List.init (Array.length cols) (fun c ->
            field c (Option.map (fun r -> Table.get t ~row:r ~col:c) base)))
  in
  Csv.write_string (header :: records)

let appends = Metrics.counter "graph.view_appends"
let full_builds = Metrics.counter "graph.view_full_builds"

let run_ok ?loader session script =
  List.iter
    (fun (_, o) ->
      match o with
      | Script_exec.O_failed e ->
          Alcotest.failf "statement failed: %s" (Graql_error.to_string e)
      | _ -> ())
    (Session.run_script ?loader session script)

(* One random step: an ingest of 1-6 rows into a random table, or (when
   the schema reads one) a new value for a parameter. *)
let random_step rng db ?(dups = []) ~tables ~params ~next_id () =
  if params <> [] && Random.State.int rng 8 = 0 then
    let name, values = List.nth params (Random.State.int rng (List.length params)) in
    (Printf.sprintf "set %%%s%% = %d" name
       (List.nth values (Random.State.int rng (List.length values))), None)
  else
    let table = List.nth tables (Random.State.int rng (List.length tables)) in
    let rows = 1 + Random.State.int rng 6 in
    let file = Printf.sprintf "step%d.csv" !next_id in
    let doc = gen_csv rng db ~dups ~table ~rows ~next_id in
    (Printf.sprintf "ingest table %s %s" table file, Some (file, doc))

(* Apply [steps] random steps to two sessions over the same start: [kept]
   reads its graph (so maintains it) most steps, [fresh] builds every
   view from row 0 each time. Returns the final graph of [kept] and the
   number of appends it made. *)
let maintained_vs_full ~domains ~seed ~steps ~setup ~dups ~tables ~params =
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let kept = Session.create ~pool () and fresh = Session.create ~pool () in
  setup kept;
  setup fresh;
  ignore (Db.graph (Session.db kept));
  let rng = Random.State.make [| seed |] in
  let next_id = ref 100 (* above the ids small_setup uses *) in
  let a0 = Metrics.counter_value appends in
  for step = 1 to steps do
    let stmt, file =
      random_step rng (Session.db kept) ~dups ~tables ~params ~next_id ()
    in
    let loader = Option.map (fun (_, doc) _ -> doc) file in
    run_ok ?loader kept stmt;
    run_ok ?loader fresh stmt;
    if Random.State.int rng 4 <> 0 || step = steps then
      check_str
        (Printf.sprintf "seed %d step %d (%s) at %d domains" seed step stmt domains)
        (dump (full_rebuild (Session.db fresh)))
        (dump (Db.graph (Session.db kept)))
  done;
  (dump (Db.graph (Session.db kept)), Metrics.counter_value appends - a0)

(* ---------- the three schemas ---------- *)

let berlin_setup session = Berlin_gen.ingest_all ~scale:1 session

let berlin_tables =
  [ "Reviews"; "Offers"; "Products"; "Persons"; "Producers"; "Vendors";
    "ProductTypes"; "ProductFeatures"; "Types" ]

let snb_setup session = Snb_gen.ingest_all ~scale:1 session

let snb_tables = [ "People"; "KnowsRel"; "Posts"; "Comments"; "LikesRel"; "Forums" ]

(* Every kind of view on a few dozen rows. *)
let small_ddl =
  {|
create table TP(id varchar(10), city varchar(10), age int)
create table TK(src varchar(10), dst varchar(10), w int)
create table TV(person varchar(10), place varchar(10))
create table TD(id varchar(10), note varchar(10))

create vertex P(id) from table TP where age > %MinAge%
create vertex City(city) from table TP
create vertex Place(place) from table TV
create vertex D(id) from table TD

create edge knows with
vertices (P as A, P as B)
from table TK
where TK.src = A.id and TK.dst = B.id and TK.w > %MinW%

create edge livesIn with
vertices (P, City)
where P.city = City.city

create edge visited with
vertices (P, Place)
from table TV
where TV.person = P.id and TV.place = Place.place

create edge tagged with
vertices (D, P)
from table TK
where TK.src = D.id and TK.dst = P.id

create edge samePlace with
vertices (City, Place)
where City.city = Place.place

create edge friendCity with
vertices (P, City)
where TK.src = P.id and TK.dst = TP.id and TP.city = City.city
|}

let small_setup session =
  run_ok session "set %MinAge% = 1\nset %MinW% = 0";
  run_ok session small_ddl;
  let loader = function
    | "tp.csv" -> "id,city,age\nz1,c1,3\nz2,c2,0\nz3,c1,5\n"
    | "tk.csv" -> "src,dst,w\nz1,z2,1\nz1,z3,4\nz3,z9,2\n"
    | "tv.csv" -> "person,place\nz1,c1\nz3,x\n"
    | "td.csv" -> "id,note\nz2,a\n"
    | f -> failwith f
  in
  run_ok ~loader session
    "ingest table TP tp.csv\ningest table TK tk.csv\ningest table TV tv.csv\n\
     ingest table TD td.csv"

let small_tables = [ "TP"; "TK"; "TV"; "TD" ]
let small_dups = [ "TD" ]
let small_params = [ ("MinAge", [ 0; 1; 2; 3 ]); ("MinW", [ 0; 2 ]) ]

let property ~name ~setup ?(dups = []) ~tables ~params ~steps ~seeds () =
  List.iter
    (fun seed ->
      let runs =
        List.map
          (fun domains ->
            maintained_vs_full ~domains ~seed ~steps ~setup ~dups ~tables
              ~params)
          [ 1; 2; 4; 8 ]
      in
      let g1, a1 = List.hd runs in
      check (Printf.sprintf "%s seed %d: some views were extended" name seed)
        true (a1 > 0);
      List.iter
        (fun (g, a) ->
          check_str (name ^ ": same graph at every domain count") g1 g;
          check_int (name ^ ": same appends at every domain count") a1 a)
        runs)
    seeds

(* ---------- recovery ---------- *)

(* The remaining tests run at the default width ([GRAQL_DOMAINS]). *)
let default_pool = lazy (Pool.create ())
let session ?durability () =
  Session.create ~pool:(Lazy.force default_pool) ?durability
    ~checkpoint_bytes:max_int ()

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "graql_views" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A durable session maintains its graph through random ingests; a fresh
   database recovered from its WAL builds the same graph from row 0. *)
let test_recovery () =
  with_temp_dir @@ fun dir ->
  let session = session ~durability:(Session.Wal_dir dir) () in
  small_setup session;
  let rng = Random.State.make [| 17 |] in
  let next_id = ref 100 (* above the ids small_setup uses *) in
  for _ = 1 to 40 do
    let stmt, file =
      random_step rng (Session.db session) ~dups:small_dups
        ~tables:small_tables ~params:small_params ~next_id ()
    in
    run_ok ?loader:(Option.map (fun (_, doc) _ -> doc) file) session stmt;
    ignore (Db.graph (Session.db session))
  done;
  let live = dump (Db.graph (Session.db session)) in
  Session.close session;
  let db = Db.create ~pool:(Lazy.force default_pool) () in
  Ddl_exec.install db;
  ignore (Db_io.recover db ~dir);
  check_str "recovered graph equals the maintained one" live (dump (Db.graph db))

(* ---------- the satellites' repros ---------- *)

let one_review =
  "id,type,reviewFor,reviewer,reviewDate,title,text,ratings_1,ratings_2,ratings_3,ratings_4,publisher,date\n\
   x0000001,Review,p0,u0,2008-01-01,t,x,1,2,3,4,pub0,2008-01-02\n"

(* A stored subgraph's bitsets keep the length its vertex type had; the
   type growing afterwards must not make seeding from it fail. *)
let test_subgraph_survives_growth () =
  let s = session () in
  Berlin_gen.ingest_all ~scale:2 s;
  run_ok s
    "select ReviewVtx from graph ProductVtx (id = 'p0') <--reviewFor-- \
     ReviewVtx ( ) into subgraph S";
  let before =
    Subgraph.total_vertices (Option.get (Db.find_subgraph (Session.db s) "S"))
  in
  run_ok ~loader:(fun _ -> one_review) s "ingest table Reviews new.csv";
  let results =
    Session.run_script s
      "select ReviewVtx.id from graph ProductVtx (id = 'p0') <--reviewFor-- \
       S.ReviewVtx ( )"
  in
  match results with
  | [ (_, Script_exec.O_table t) ] ->
      check_int "the stored reviews, not the new one" before (Table.nrows t)
  | [ (_, Script_exec.O_failed e) ] -> Alcotest.fail (Graql_error.to_string e)
  | _ -> Alcotest.fail "one table result expected"

let vertex_count s name =
  Vset.size (Graph_store.find_vset_exn (Db.graph (Session.db s)) name)

(* A view's contents follow its parameter when it is set, not when some
   later ingest happens to rebuild the view. *)
let test_param_rebuilds_view () =
  let s = session () in
  run_ok s "create table T(id varchar(10), x int)";
  run_ok s "create table U(id varchar(10))";
  run_ok s "set %Min% = 1";
  run_ok s "create vertex V(id) from table T where x > %Min%";
  run_ok s "create vertex W(id) from table U";
  run_ok
    ~loader:(fun f -> if f = "t.csv" then "id,x\na,2\nb,3\nc,4\nd,1\n" else "id\nu1\n")
    s "ingest table T t.csv\ningest table U u.csv";
  check_int "Min = 1" 3 (vertex_count s "V");
  run_ok s "set %Min% = 3";
  check_int "after set %Min% = 3" 1 (vertex_count s "V");
  run_ok ~loader:(fun _ -> "id\nu2\n") s "ingest table U u2.csv";
  check_int "after an unrelated ingest" 1 (vertex_count s "V")

(* A result that replaces a table a view reads changes the view at once,
   not at the next ingest. *)
let test_replaced_table_rebuilds_view () =
  let s = session () in
  run_ok s "create table T(id varchar(4), x int)\ncreate vertex V(id) from table T";
  run_ok ~loader:(fun _ -> "id,x\na,1\nb,2\nc,3\n") s "ingest table T t.csv";
  check_int "before" 3 (vertex_count s "V");
  run_ok s "select id, x from table T where x > 2 into table T";
  check_int "after the table is replaced" 1 (vertex_count s "V")

(* The same within one script: a graph select after the select that
   replaces the table must not share its wave, or it reads the view over
   the old table while a sequential run reads the new one. The view is
   defined before the script in one case and by it in the other. *)
let test_replaced_table_in_one_script () =
  let ddl = "create table T(id varchar(4), x int)\n" in
  let view = "create vertex V(id) from table T\n" in
  let ingest = "ingest table T t.csv\n" in
  let replace_then_read =
    "select id, x from table T where x > 2 into table T\n\
     select V.id from graph V ( )"
  in
  let loader _ = "id,x\na,1\nb,2\nc,3\n" in
  let pool = Pool.create ~domains:4 () in
  let run ~parallel ~before script =
    let db = Db.create ~pool () in
    Ddl_exec.install db;
    let exec ?parallel src =
      Script_exec.exec_script ~loader ?parallel db
        (Graql_lang.Parser.parse_script src)
    in
    ignore (exec ~parallel:false before);
    match List.rev (exec ~parallel script) with
    | (_, Script_exec.O_table t) :: _ -> (Table.nrows t, Table.to_display_string t)
    | _ -> Alcotest.fail "the graph select gave no table"
  in
  let saved = !Graql_relational.Join.par_threshold in
  Graql_relational.Join.par_threshold := 1;
  Fun.protect
    ~finally:(fun () ->
      Graql_relational.Join.par_threshold := saved;
      Pool.shutdown pool)
  @@ fun () ->
  List.iter
    (fun (name, before, script) ->
      let rows, sequential = run ~parallel:false ~before script in
      check_int (name ^ ": one vertex left") 1 rows;
      check_str (name ^ ": waves = sequential") sequential
        (snd (run ~parallel:true ~before script)))
    [
      ("view before the script", ddl ^ view ^ ingest, replace_then_read);
      ("view in the script", ddl ^ ingest, view ^ replace_then_read);
    ]

(* An edge driven by a many-to-one endpoint reads that type's key table,
   which is written afresh when the type gains a key: appending must not
   go on reading the old one. *)
let test_many_to_one_driver () =
  let ddl =
    "create table A(c varchar(4))\ncreate table B(c varchar(4))\n\
     create vertex X(c) from table A\ncreate vertex Y(c) from table B\n\
     create edge same with vertices (X, Y) where X.c = Y.c"
  in
  let docs = function
    | "a1.csv" -> "c\nc1\nc1\n"
    | "b1.csv" -> "c\nc1\nc2\n"
    | "a2.csv" -> "c\nc2\nc2\n"
    | f -> failwith f
  in
  let run s = run_ok ~loader:docs s in
  let kept = session () and fresh = session () in
  List.iter
    (fun s -> run s ddl; run s "ingest table A a1.csv\ningest table B b1.csv")
    [ kept; fresh ];
  ignore (Db.graph (Session.db kept));
  List.iter (fun s -> run s "ingest table A a2.csv") [ kept; fresh ];
  let g = Db.graph (Session.db kept) in
  check_int "both keys have their edge" 2
    (Eset.size (Graph_store.find_eset_exn g "same"));
  check_str "maintained = full rebuild"
    (dump (full_rebuild (Session.db fresh)))
    (dump g)

(* Counter pins: a served ingest's maintenance, view by view. *)
let counts f =
  let a = Metrics.counter_value appends and b = Metrics.counter_value full_builds in
  f ();
  (Metrics.counter_value appends - a, Metrics.counter_value full_builds - b)

let test_counters () =
  let s = session () in
  Berlin_gen.ingest_all ~scale:1 s;
  ignore (Db.graph (Session.db s));
  let a, f =
    counts (fun () ->
        run_ok ~loader:(fun _ -> one_review) s "ingest table Reviews r.csv";
        ignore (Db.graph (Session.db s)))
  in
  check_int "Berlin Reviews ingest: appends (ReviewVtx, reviewFor, reviewer)" 3 a;
  check_int "Berlin Reviews ingest: full builds" 0 f;
  let s = session () in
  Snb_gen.ingest_all ~scale:1 s;
  ignore (Db.graph (Session.db s));
  let a, f =
    counts (fun () ->
        run_ok
          ~loader:(fun _ -> "person,post,creationDate\nu1,po2,2012-01-01\n")
          s "ingest table LikesRel l.csv";
        ignore (Db.graph (Session.db s)))
  in
  check_int "SNB LikesRel ingest: appends (likes)" 1 a;
  check_int "SNB LikesRel ingest: full builds" 0 f;
  let a, f =
    counts (fun () ->
        run_ok s "create vertex Liked(post) from table LikesRel";
        ignore (Db.graph (Session.db s)))
  in
  check_int "DDL: appends" 0 a;
  check_int "DDL: one full build, the new view" 1 f

(* A review naming a person no PersonVtx has drops its reviewer edge on
   the dst side. Later reviews grow ReviewVtx, the src side, which cannot
   revive that row: reviewer is appended to, not built from row 0, and
   still equals a full rebuild. Growing PersonVtx would revive it. *)
let test_dst_misses_src_grows () =
  let review id person =
    Printf.sprintf
      "id,type,reviewFor,reviewer,reviewDate,title,text,ratings_1,ratings_2,ratings_3,ratings_4,publisher,date\n\
       %s,Review,p0,%s,2008-01-01,t,x,1,2,3,4,pub0,2008-01-02\n"
      id person
  in
  let kept = session () and fresh = session () in
  List.iter (fun s -> Berlin_gen.ingest_all ~scale:1 s) [ kept; fresh ];
  let ingest doc =
    List.iter (fun s -> run_ok ~loader:(fun _ -> doc) s "ingest table Reviews r.csv")
      [ kept; fresh ]
  in
  ignore (Db.graph (Session.db kept));
  ingest (review "x0000001" "u9999999");
  ignore (Db.graph (Session.db kept));
  let reviewer () =
    Graph_store.find_eset_exn (Db.graph (Session.db kept)) "reviewer"
  in
  check_int "the dangling reviewer is a dst miss" 1 (Eset.dropped_dst (reviewer ()));
  check_int "and no src miss" 0 (Eset.dropped_src (reviewer ()));
  for i = 2 to 6 do
    ingest (review (Printf.sprintf "x%07d" i) "u0");
    let a, f = counts (fun () -> ignore (Db.graph (Session.db kept))) in
    check_int (Printf.sprintf "ingest %d: appends (ReviewVtx, reviewFor, reviewer)" i) 3 a;
    check_int (Printf.sprintf "ingest %d: full builds" i) 0 f
  done;
  check_str "maintained = full rebuild"
    (dump (full_rebuild (Session.db fresh)))
    (dump (Db.graph (Session.db kept)))

(* The replaced graph is released once its successor is built. *)
let test_last_built_released () =
  let s = session () in
  small_setup s;
  let db = Session.db s in
  ignore (Db.graph db);
  run_ok ~loader:(fun _ -> "id,city,age\nz7,c3,4\n") s "ingest table TP p.csv";
  check "kept while invalidated" true (Db.last_built db <> None);
  ignore (Db.graph db);
  check "released after the build" true (Db.last_built db = None)

(* ---------- the catalog snapshot ---------- *)

module Meta = Graql_analysis.Meta

(* Every entity of a snapshot, in declaration order, sizes included. *)
let render_meta m =
  let schema = Format.asprintf "%a" Schema.pp in
  let size = function Some n -> string_of_int n | None -> "?" in
  String.concat "\n"
    (List.map
       (fun name ->
         name ^ ": "
         ^
         match Meta.find m name with
         | Some (Meta.M_table (s, n)) -> "table " ^ schema s ^ " " ^ size n
         | Some (Meta.M_vertex vm) ->
             Printf.sprintf "vertex %s key %s attrs %s from %s %s"
               vm.Meta.vm_name (schema vm.Meta.vm_key) (schema vm.Meta.vm_attrs)
               vm.Meta.vm_source (size vm.Meta.vm_size)
         | Some (Meta.M_edge em) ->
             Printf.sprintf "edge %s %s -> %s attrs %s %s" em.Meta.em_name
               em.Meta.em_src em.Meta.em_dst
               (Option.fold ~none:"-" ~some:schema em.Meta.em_attrs)
               (size em.Meta.em_size)
         | Some (Meta.M_subgraph vs) -> "subgraph " ^ String.concat "," vs
         | None -> "missing")
       (Meta.names m))

(* One statement per catalog mutator: tables, view definitions, ingests
   (each followed by a graph select that builds the views), a stored
   subgraph over built views, a new and a replaced result table, a
   replaced table a view reads, and a [set] a view reads. *)
let snapshot_script =
  [
    "create table T(id varchar(4), x int)";
    "create table U(id varchar(4), t varchar(4))";
    "set %Min% = 0";
    "create vertex V(id) from table T where x > %Min%";
    "create vertex W(id) from table U";
    "create edge e with vertices (W, V) where W.t = V.id";
    "ingest table T t.csv";
    "select V.id from graph V ( )";
    "ingest table U u.csv";
    "select V.id from graph V ( )";
    "select * from graph W --e--> V into subgraph S";
    "select id, x from table T where x > 1 into table R";
    "select id from table R where x > 2 into table R";
    "select id, x from table T where x > 1 into table T";
    "set %Min% = 2";
  ]

let snapshot_loader = function
  | "t.csv" -> "id,x\na,1\nb,2\nc,3\nd,4\n"
  | "u.csv" -> "id,t\nu1,a\nu2,c\nu3,d\n"
  | f -> failwith f

(* The reference runs the executor alone: nothing reads [Db.meta] before
   the snapshot under comparison, so it cannot be a stale one. *)
let fresh_meta stmts =
  let db = Db.create ~pool:(Lazy.force default_pool) () in
  Ddl_exec.install db;
  List.iter
    (fun stmt ->
      match
        Script_exec.exec_script ~loader:snapshot_loader db
          (Graql_lang.Parser.parse_script stmt)
      with
      | [ (_, Script_exec.O_failed e) ] ->
          Alcotest.failf "%s: %s" stmt (Graql_error.to_string e)
      | _ -> ())
    stmts;
  render_meta (Db.meta db)

(* A live session reads [Db.meta] (to type-check) before every statement
   and again after it; each snapshot must equal that of a database that
   ran the same prefix from scratch, and so must a WAL-recovered one. *)
let test_snapshot_fresh () =
  with_temp_dir @@ fun dir ->
  let s = session ~durability:(Session.Wal_dir dir) () in
  let db = Session.db s in
  check_str "empty" (fresh_meta []) (render_meta (Db.meta db));
  List.iteri
    (fun i stmt ->
      run_ok ~loader:snapshot_loader s stmt;
      check_str stmt
        (fresh_meta (List.filteri (fun j _ -> j <= i) snapshot_script))
        (render_meta (Db.meta db)))
    snapshot_script;
  Session.close s;
  let recovered = Db.create ~pool:(Lazy.force default_pool) () in
  Ddl_exec.install recovered;
  ignore (Db.meta recovered);
  ignore (Db_io.recover recovered ~dir);
  check_str "after WAL recovery" (fresh_meta snapshot_script)
    (render_meta (Db.meta recovered))

let () =
  let steps = 30 in
  Alcotest.run "views"
    [
      ( "maintained = full rebuild",
        [
          Alcotest.test_case "small schema" `Quick
            (property ~name:"small" ~setup:small_setup ~dups:small_dups
               ~tables:small_tables
               ~params:small_params ~steps:60 ~seeds:[ 1; 2; 3; 4 ]);
          Alcotest.test_case "berlin" `Quick
            (property ~name:"berlin" ~setup:berlin_setup ~tables:berlin_tables
               ~params:[] ~steps ~seeds:[ 5 ]);
          Alcotest.test_case "snb" `Quick
            (property ~name:"snb" ~setup:snb_setup ~tables:snb_tables
               ~params:[] ~steps ~seeds:[ 6 ]);
        ] );
      ( "recovery",
        [ Alcotest.test_case "WAL replay gives the same graph" `Quick test_recovery ] );
      ( "satellites",
        [
          Alcotest.test_case "stored subgraph survives its type growing" `Quick
            test_subgraph_survives_growth;
          Alcotest.test_case "set rebuilds a view reading the parameter" `Quick
            test_param_rebuilds_view;
          Alcotest.test_case "replacing a table rebuilds its views" `Quick
            test_replaced_table_rebuilds_view;
          Alcotest.test_case "replacing a table within one script" `Quick
            test_replaced_table_in_one_script;
          Alcotest.test_case "edge driven by a many-to-one type" `Quick
            test_many_to_one_driver;
          Alcotest.test_case "maintenance counters" `Quick test_counters;
          Alcotest.test_case "dst misses while src grows: appends" `Quick
            test_dst_misses_src_grows;
          Alcotest.test_case "replaced graph released" `Quick
            test_last_built_released;
        ] );
      ( "catalog snapshot",
        [
          Alcotest.test_case "fresh after every mutation" `Quick
            test_snapshot_fresh;
        ] );
    ]
