(* Benchmark harness: regenerates every figure and table of the paper
   (see DESIGN.md's per-experiment index) plus the Sec. III performance
   machinery (planner direction ablation, multi-statement scheduling,
   domain-parallel backend scaling).

   Two kinds of output:
   - bechamel micro-benchmarks, one Test.make per paper artifact;
   - parameter-sweep tables (scale factors, domain counts), printed as
     rows, recorded in EXPERIMENTS.md. *)

open Bechamel
open Toolkit

let bench_scale = 2 (* ~200 products: micro-benches stay sub-ms *)

(* ------------------------------------------------------------------ *)
(* Prepared state                                                      *)

let make_session ?(scale = bench_scale) () =
  let session = Graql.create_session () in
  Graql.Berlin.Gen.ingest_all ~scale session;
  let db = Graql.Session.db session in
  let product = Graql.Berlin.Reference.most_offered_product ~scale () in
  Graql.Db.set_param db "Product1" (Graql.Value.Str product);
  Graql.Db.set_param db "Country1" (Graql.Value.Str "US");
  Graql.Db.set_param db "Country2" (Graql.Value.Str "IT");
  session

let session = make_session ()
let db = Graql.Session.db session
let () = Graql.Db.set_param db "MaxPrice" (Graql.Value.Float 5000.0)
let _ = Graql.Db.graph db (* build views once up front *)

(* Tables-only database used by view-construction benches. *)
let tables_only_db () =
  let d = Graql.Db.create () in
  Graql.Ddl_exec.install d;
  let loader = Graql.Berlin.Gen.loader ~scale:bench_scale () in
  let ddl =
    Graql.Berlin.Schema_ddl.tables_ddl ^ "\n"
    ^ Graql.Berlin.Schema_ddl.ingest_script Graql.Berlin.Gen.table_files
  in
  List.iter
    (fun stmt -> ignore (Graql.Script_exec.exec_stmt ~loader d stmt))
    (Graql.Parser.parse_script ddl);
  d

let declare d ddl =
  List.iter
    (fun stmt -> ignore (Graql.Script_exec.exec_stmt d stmt))
    (Graql.Parser.parse_script ddl)

let vertex_db = tables_only_db ()
let () = declare vertex_db Graql.Berlin.Schema_ddl.vertices_ddl

let edge_db = tables_only_db ()
let () =
  declare edge_db Graql.Berlin.Schema_ddl.vertices_ddl;
  declare edge_db Graql.Berlin.Schema_ddl.edges_ddl

let country_db = tables_only_db ()
let () = declare country_db Graql.Berlin.Schema_ddl.country_ddl

let run_script src () = ignore (Graql.run session src)


(* ------------------------------------------------------------------ *)
(* Figure targets                                                      *)

let fig01_data_model () =
  (* Front-end cost of standing up the whole Berlin logical data model:
     parse + static checking of the full DDL against an empty catalog. *)
  let meta = Graql.Meta.create () in
  let ast = Graql.Parser.parse_script Graql.Berlin.Schema_ddl.full_ddl in
  ignore (Graql.Typecheck.check_script meta ast)

(* Clear the fingerprints so the timed rebuild is from scratch, not a
   selective reuse of the previous build. *)
let full_rebuild d () =
  Graql.Db.set_view_fingerprints d [];
  Graql.Db.invalidate_graph d;
  ignore (Graql.Db.graph d)

let fig02_vertex_decls = full_rebuild vertex_db
let fig03_edge_decls = full_rebuild edge_db
let fig04_many_to_one = full_rebuild country_db

let fig05_country_graph =
  (* The exact 4-producer / 3-vendor example of Fig. 5, end to end. *)
  let script =
    {|
create table P5(id integer, country varchar(2))
create table V5(id integer, country varchar(2))
create table O5(pid integer, vid integer)
create vertex PC5(country) from table P5
create vertex VC5(country) from table V5
create edge export5 with vertices (PC5 as A, VC5 as B)
  where O5.pid = P5.id and O5.vid = V5.id
  and A.country = P5.country and B.country = V5.country
ingest table P5 p5.csv
ingest table V5 v5.csv
ingest table O5 o5.csv
|}
  in
  let loader = function
    | "p5.csv" -> "id,country\n1,US\n2,IT\n3,FR\n4,US\n"
    | "v5.csv" -> "id,country\n1,CA\n2,CN\n3,CA\n"
    | "o5.csv" -> "pid,vid\n1,1\n4,3\n2,2\n2,2\n"
    | f -> raise (Sys_error f)
  in
  fun () ->
    let d = Graql.Db.create () in
    Graql.Ddl_exec.install d;
    List.iter
      (fun stmt -> ignore (Graql.Script_exec.exec_stmt ~loader d stmt))
      (Graql.Parser.parse_script script);
    ignore (Graql.Db.graph d)

let fig06_berlin_q2 = run_script Graql.Berlin.Queries.q2
let fig07_berlin_q1 = run_script Graql.Berlin.Queries.q1

let fig08_multipath =
  (* Q1's branch structure alone: the and-composition without the
     relational post-processing. *)
  run_script
    {|select TypeVtx.id from graph
        PersonVtx (country = %Country2%)
        <--reviewer-- ReviewVtx
        --reviewFor--> foreach y: ProductVtx
        --producer--> ProducerVtx (country = %Country1%)
      and
        (y --type--> TypeVtx ( ))
      into table Fig8T|}

let fig09_type_matching = run_script Graql.Berlin.Queries.fig9_type_matching
let fig10_path_regex = run_script Graql.Berlin.Queries.fig10_regex
let fig11_into_subgraph = run_script Graql.Berlin.Queries.fig11_subgraph_capture
let fig12_seeded_query = run_script Graql.Berlin.Queries.fig12_seeded
let fig13_into_table = run_script Graql.Berlin.Queries.fig13_into_table

(* ------------------------------------------------------------------ *)
(* Table I: one bench per relational operation                         *)

let tab1 =
  [
    ("select", "select id from table Products where propertyNumeric_1 > 1000");
    ("order_by", "select id from table Offers order by price desc");
    ( "group_by",
      "select vendor, count(*) as n from table Offers group by vendor" );
    ("distinct", "select distinct producer from table Products");
    ("count", "select count(*) as n from table Reviews");
    ("avg", "select avg(price) as p from table Offers");
    ("min", "select min(price) as p from table Offers");
    ("max", "select max(price) as p from table Offers");
    ("sum", "select sum(deliveryDays) as d from table Offers");
    ("top_n", "select top 10 id, price from table Offers order by price desc");
    ( "as_alias",
      "select o.id, o.price from table Offers as o where o.deliveryDays < 3" );
  ]

(* ------------------------------------------------------------------ *)
(* Sec. III targets                                                    *)

let s3a_static_analysis =
  let meta = Graql.Db.meta db in
  let ast =
    Graql.Parser.parse_script
      (Graql.Berlin.Queries.q1 ^ "\n" ^ Graql.Berlin.Queries.q2)
  in
  fun () ->
    ignore
      (Graql.Typecheck.check_script
         ~params:
           [
             ("Product1", Graql.Ast.L_string "p0");
             ("Country1", Graql.Ast.L_string "US");
             ("Country2", Graql.Ast.L_string "IT");
           ]
         meta ast)

let ir_ship =
  let ast =
    Graql.Parser.parse_script
      (Graql.Berlin.Schema_ddl.full_ddl ^ Graql.Berlin.Queries.q1
     ^ Graql.Berlin.Queries.q2)
  in
  fun () -> ignore (Graql.Ir.decode_script (Graql.Ir.encode_script ast))

(* Planner ablation: tail-selective path; forward scan vs planner choice. *)
let planner_query =
  match
    Graql.Parser.parse_statement
      {|select * from graph OfferVtx ( ) --product--> ProductVtx (id = %Product1%)
        into subgraph PlannerG|}
  with
  | Graql.Ast.Select_graph { sg_path; _ } -> sg_path
  | _ -> assert false

let run_planner auto () =
  ignore
    (Graql.Path_exec.run_multipath ~db
       ~params:(fun p -> Graql.Db.find_param db p)
       ~mode:(Graql.Path_exec.Keep_minimal []) ~auto_reverse:auto planner_query)

(* ------------------------------------------------------------------ *)
(* Bechamel driving                                                    *)

let tests =
  Test.make_grouped ~name:"graql"
    [
      Test.make ~name:"fig01_data_model" (Staged.stage fig01_data_model);
      Test.make ~name:"fig02_vertex_decls" (Staged.stage fig02_vertex_decls);
      Test.make ~name:"fig03_edge_decls" (Staged.stage fig03_edge_decls);
      Test.make ~name:"fig04_many_to_one" (Staged.stage fig04_many_to_one);
      Test.make ~name:"fig05_country_graph" (Staged.stage fig05_country_graph);
      Test.make ~name:"fig06_berlin_q2" (Staged.stage fig06_berlin_q2);
      Test.make ~name:"fig07_berlin_q1" (Staged.stage fig07_berlin_q1);
      Test.make ~name:"fig08_multipath" (Staged.stage fig08_multipath);
      Test.make ~name:"fig09_type_matching" (Staged.stage fig09_type_matching);
      Test.make ~name:"fig10_path_regex" (Staged.stage fig10_path_regex);
      Test.make ~name:"fig11_into_subgraph" (Staged.stage fig11_into_subgraph);
      Test.make ~name:"fig12_seeded_query" (Staged.stage fig12_seeded_query);
      Test.make ~name:"fig13_into_table" (Staged.stage fig13_into_table);
      Test.make_grouped ~name:"tab1"
        (List.map
           (fun (name, src) -> Test.make ~name (Staged.stage (run_script src)))
           tab1);
      Test.make_grouped ~name:"bi"
        (List.map
           (fun (name, q) ->
             Test.make ~name (Staged.stage (run_script q)))
           Graql.Berlin.Queries.bi_all);
      Test.make ~name:"s3a_static_analysis" (Staged.stage s3a_static_analysis);
      Test.make ~name:"s3a_ir_encode_decode" (Staged.stage ir_ship);
      Test.make ~name:"s3b_planner_forward" (Staged.stage (run_planner false));
      Test.make ~name:"s3b_planner_chosen" (Staged.stage (run_planner true));
    ]

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:false ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              rows := (name, ns) :: !rows
          | _ -> ())
        tbl)
    merged;
  let rows = List.sort compare !rows in
  let fmt_ns ns =
    if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  print_endline "== micro-benchmarks (one per paper artifact) ==";
  print_endline
    (Graql_util.Text_table.render
       ~aligns:[| Graql_util.Text_table.Left; Graql_util.Text_table.Right |]
       ~header:[ "benchmark"; "time/run" ]
       (List.map (fun (n, ns) -> [ n; fmt_ns ns ]) rows))

(* ------------------------------------------------------------------ *)
(* Sweep tables                                                        *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let time_best ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := min !best (time_once f)
  done;
  !best

let ms t = Printf.sprintf "%.2f" (t *. 1000.0)

let sweep_scales () =
  print_endline "\n== query latency vs dataset scale (ms, best of 3) ==";
  let rows =
    List.map
      (fun scale ->
        let s = make_session ~scale () in
        let _ = Graql.Db.graph (Graql.Session.db s) in
        let q1 = time_best (fun () -> ignore (Graql.run s Graql.Berlin.Queries.q1)) in
        let q2 = time_best (fun () -> ignore (Graql.run s Graql.Berlin.Queries.q2)) in
        let fig9 =
          time_best (fun () -> ignore (Graql.run s Graql.Berlin.Queries.fig9_type_matching))
        in
        let regex =
          time_best (fun () -> ignore (Graql.run s Graql.Berlin.Queries.fig10_regex))
        in
        [
          string_of_int scale;
          string_of_int (100 * scale);
          ms q1;
          ms q2;
          ms fig9;
          ms regex;
        ])
      [ 1; 2; 4; 8 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "scale"; "products"; "q1"; "q2"; "fig9"; "fig10" ]
       rows)

let sweep_view_build () =
  print_endline "\n== graph view construction vs scale (ms, best of 3) ==";
  let rows =
    List.map
      (fun scale ->
        let s = make_session ~scale () in
        let d = Graql.Session.db s in
        let t =
          time_best (fun () ->
              (* Clear fingerprints so nothing is selectively reused: this
                 measures a from-scratch rebuild. *)
              Graql.Db.set_view_fingerprints d [];
              Graql.Db.invalidate_graph d;
              ignore (Graql.Db.graph d))
        in
        let g = Graql.Db.graph d in
        [
          string_of_int scale;
          string_of_int (Graql.Graph_store.total_vertices g);
          string_of_int (Graql.Graph_store.total_edges g);
          ms t;
        ])
      [ 1; 2; 4; 8 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "scale"; "vertices"; "edges"; "build(ms)" ]
       rows)

let sweep_planner () =
  print_endline
    "\n== planner ablation: tail-selective path (Sec. III-B), ms best of 3 ==";
  let rows =
    List.map
      (fun scale ->
        let s = make_session ~scale () in
        let d = Graql.Session.db s in
        let _ = Graql.Db.graph d in
        let params p = Graql.Db.find_param d p in
        let mp =
          match
            Graql.Parser.parse_statement
              {|select * from graph OfferVtx ( ) --product-->
                 ProductVtx (id = %Product1%) into subgraph PG|}
          with
          | Graql.Ast.Select_graph { sg_path; _ } -> sg_path
          | _ -> assert false
        in
        let run auto () =
          ignore
            (Graql.Path_exec.run_multipath ~db:d ~params
               ~mode:(Graql.Path_exec.Keep_minimal []) ~auto_reverse:auto mp)
        in
        let fwd = time_best (run false) in
        let auto = time_best (run true) in
        [
          string_of_int scale;
          ms fwd;
          ms auto;
          Printf.sprintf "%.1fx" (fwd /. auto);
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "scale"; "forward(ms)"; "planner(ms)"; "speedup" ]
       rows)

let sweep_script_parallel () =
  print_endline
    "\n== multi-statement scheduling (Sec. III-B1): 8 independent selects ==";
  let stmts =
    String.concat "\n"
      (List.init 8 (fun i ->
           Printf.sprintf
             "select vendor, count(*) as n, avg(price) as p from table Offers \
              where deliveryDays >= %d group by vendor order by n desc into \
              table W%d"
             (i mod 6) i))
  in
  let scale = 8 in
  let rows =
    List.map
      (fun domains ->
        let pool = Graql.Domain_pool.create ~domains () in
        let s = Graql.create_session ~pool () in
        Graql.Berlin.Gen.ingest_all ~scale s;
        let serial =
          time_best ~reps:2 (fun () ->
              ignore (Graql.run ~parallel:false s stmts))
        in
        let parallel =
          time_best ~reps:2 (fun () -> ignore (Graql.run ~parallel:true s stmts))
        in
        Graql.Domain_pool.shutdown pool;
        [
          string_of_int domains;
          ms serial;
          ms parallel;
          Printf.sprintf "%.2fx" (serial /. parallel);
        ])
      [ 1; 2; 4 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "domains"; "serial(ms)"; "scheduled(ms)"; "speedup" ]
       rows)

(* Durability costs (DESIGN.md §9): run the Berlin ingest under a
   write-ahead log, then time cold recovery (full-log replay into a fresh
   database), the checkpoint fold, and restart-from-snapshot. Also the
   backing data for BENCH_recovery.json (--json mode). *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let sweep_recovery ?(json = false) () =
  print_endline "\n== durability: WAL replay + checkpoint ==";
  let entries = ref [] in
  let recover_cold dir =
    let d = Graql.Db.create () in
    Graql.Ddl_exec.install d;
    ignore (Graql.Db_io.recover d ~dir)
  in
  let rows =
    List.map
      (fun scale ->
        let dir = Filename.temp_file "graql_bench_wal" "" in
        Sys.remove dir;
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let s =
          Graql.create_session ~durability:(Graql.Wal_dir dir)
            ~checkpoint_bytes:max_int ()
        in
        let ddl =
          Graql.Berlin.Schema_ddl.full_ddl ^ "\n"
          ^ Graql.Berlin.Schema_ddl.ingest_script Graql.Berlin.Gen.table_files
        in
        ignore (Graql.run ~loader:(Graql.Berlin.Gen.loader ~scale ()) s ddl);
        let wal_path = Filename.concat dir "wal-000000.log" in
        let wal_bytes = (Unix.stat wal_path).Unix.st_size in
        let n_records =
          List.length (Graql.Wal.scan_file wal_path).Graql.Wal.s_records
        in
        let t_replay = time_best ~reps:5 (fun () -> recover_cold dir) in
        (* Replication catch-up (DESIGN.md §13): a brand-new follower
           joins the live primary and must sync the whole epoch-0 log —
           handshake, resync transfer, fsync, replay — until its lag
           reaches zero. Best of 3 fresh followers against one primary. *)
        let t_repl =
          let wal = Option.get (Graql.Session.wal s) in
          let p = Graql.Repl.start_primary ~port:0 wal in
          Fun.protect ~finally:(fun () -> Graql.Repl.stop_primary p)
          @@ fun () ->
          let once i =
            let fdir = Printf.sprintf "%s.follower-%d" dir i in
            let t0 = Unix.gettimeofday () in
            let f =
              Graql.Follower.start
                ~port:(Graql.Repl.primary_port p)
                ~dir:fdir ()
            in
            Fun.protect
              ~finally:(fun () ->
                Graql.Follower.stop f;
                rm_rf fdir)
              (fun () ->
                let deadline = t0 +. 120.0 in
                while
                  (Graql.Follower.offset f <> Graql.Wal.size wal
                  || Graql.Follower.lag_records f <> 0)
                  && Unix.gettimeofday () < deadline
                do
                  Unix.sleepf 0.001
                done;
                Unix.gettimeofday () -. t0)
          in
          List.fold_left Float.min (once 0) [ once 1; once 2 ]
        in
        let t_checkpoint =
          time_once (fun () -> ignore (Graql.Session.checkpoint s))
        in
        let t_snapshot = time_best ~reps:3 (fun () -> recover_cold dir) in
        Graql.Session.close s;
        let mb = float_of_int wal_bytes /. 1048576.0 in
        entries :=
          (scale, n_records, wal_bytes, t_replay, t_checkpoint, t_snapshot,
           t_repl)
          :: !entries;
        [
          string_of_int scale;
          string_of_int n_records;
          Printf.sprintf "%.2f" mb;
          ms t_replay;
          Printf.sprintf "%.0f" (float_of_int n_records /. t_replay);
          Printf.sprintf "%.1f" (mb /. t_replay);
          ms t_checkpoint;
          ms t_snapshot;
          ms t_repl;
          Printf.sprintf "%.0f" (float_of_int n_records /. t_repl);
        ])
      [ 1; 2; 4 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:
         [
           "scale"; "records"; "wal(MB)"; "replay(ms)"; "rec/s"; "MB/s";
           "checkpoint(ms)"; "snapshot-restart(ms)"; "repl-sync(ms)";
           "repl rec/s";
         ]
       rows);
  if json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i (scale, n, bytes, t_replay, t_ckpt, t_snap, t_repl) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "  {\"scale\": %d, \"wal_records\": %d, \"wal_bytes\": %d, \
              \"replay_ms\": %.3f, \"replay_records_per_s\": %.1f, \
              \"replay_mb_per_s\": %.3f, \"checkpoint_ms\": %.3f, \
              \"snapshot_restart_ms\": %.3f, \"repl_sync_ms\": %.3f, \
              \"repl_records_per_s\": %.1f, \"repl_mb_per_s\": %.3f}"
             scale n bytes (t_replay *. 1000.0)
             (float_of_int n /. t_replay)
             (float_of_int bytes /. 1048576.0 /. t_replay)
             (t_ckpt *. 1000.0) (t_snap *. 1000.0) (t_repl *. 1000.0)
             (float_of_int n /. t_repl)
             (float_of_int bytes /. 1048576.0 /. t_repl)))
      (List.rev !entries);
    Buffer.add_string buf "\n]\n";
    let oc = open_out "BENCH_recovery.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_recovery.json (%d entries)\n"
      (List.length !entries)
  end;
  List.rev !entries

(* Parallel partitioned join / parallel aggregation sweep. Also the
   backing data for BENCH_join.json (--json mode): mean/stddev over
   [reps] timed runs after one warmup. *)
let time_stats ?(reps = 5) ?(trim = 0) f =
  ignore (time_once f);
  let xs = Array.init reps (fun _ -> time_once f) in
  (* Timing noise on a shared machine is strictly additive, so dropping
     the slowest [trim] samples (a truncated mean) estimates the true
     cost far more stably than the plain mean — the regression gate
     compares these numbers across runs. *)
  Array.sort compare xs;
  let keep = max 1 (reps - trim) in
  let kept = Array.sub xs 0 keep in
  let mean = Array.fold_left ( +. ) 0.0 kept /. float_of_int keep in
  let var =
    Array.fold_left
      (fun a x -> a +. (((x -. mean) *. (x -. mean)) /. float_of_int keep))
      0.0 kept
  in
  (mean, sqrt var)

let join_bench_tables ~scale =
  let nl = 20_000 * scale and nr = 5_000 * scale in
  let open Graql in
  let lschema =
    Schema.make
      [
        { Schema.name = "k"; dtype = Dtype.Int };
        { Schema.name = "a"; dtype = Dtype.Int };
        { Schema.name = "grp"; dtype = Dtype.Varchar 8 };
      ]
  in
  let rschema =
    Schema.make
      [
        { Schema.name = "k"; dtype = Dtype.Int };
        { Schema.name = "b"; dtype = Dtype.Int };
      ]
  in
  let left = Table.create ~name:"bench_left" lschema in
  let state = ref 42 in
  let rand bound =
    (* Deterministic LCG so every run and every pool size joins the same
       data. *)
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = 0 to nl - 1 do
    Table.append_row left
      [
        Value.Int (rand nr);
        Value.Int i;
        Value.Str (Printf.sprintf "g%02d" (i mod 64));
      ]
  done;
  let right = Table.create ~name:"bench_right" rschema in
  for i = 0 to nr - 1 do
    Table.append_row right [ Value.Int i; Value.Int (i * 7) ]
  done;
  (left, right)

let sweep_join_parallel ?(json = false) () =
  print_endline
    "\n== shard-parallel partitioned join / aggregation (ms, mean of 5) ==";
  let scale = 8 in
  let left, right = join_bench_tables ~scale in
  let aggs =
    Graql.Aggregate.[ (Sum 1, "s"); (Count_star, "n"); (Avg 1, "avg") ]
  in
  let bench_join pool () =
    ignore (Graql.Join.hash_join ?pool ~name:"bj" ~left ~right ~on:[ (0, 0) ] ())
  in
  let bench_agg pool () =
    ignore (Graql.Aggregate.group_by ?pool ~name:"bg" left ~keys:[ 2 ] ~aggs)
  in
  let entries = ref [] in
  let record name domains (mean, sd) =
    entries := (name, domains, mean, sd) :: !entries
  in
  let jseq = time_stats ~reps:9 ~trim:4 (bench_join None) in
  let aseq = time_stats ~reps:9 ~trim:4 (bench_agg None) in
  record "hash_join" 0 jseq;
  record "group_by" 0 aseq;
  let rows =
    List.map
      (fun domains ->
        let pool = Graql.Domain_pool.create ~domains () in
        let j = time_stats ~reps:9 ~trim:4 (bench_join (Some pool)) in
        let a = time_stats ~reps:9 ~trim:4 (bench_agg (Some pool)) in
        Graql.Domain_pool.shutdown pool;
        record "hash_join" domains j;
        record "group_by" domains a;
        [
          string_of_int domains;
          ms (fst j);
          Printf.sprintf "%.2fx" (fst jseq /. fst j);
          ms (fst a);
          Printf.sprintf "%.2fx" (fst aseq /. fst a);
        ])
      [ 1; 2; 4 ]
  in
  let rows =
    [ "seq"; ms (fst jseq); "1.00x"; ms (fst aseq); "1.00x" ] :: rows
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "domains"; "join(ms)"; "speedup"; "group_by(ms)"; "speedup" ]
       rows);
  if json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i (name, domains, mean, sd) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "  {\"name\": %S, \"domains\": %d, \"scale\": %d, \
              \"mean_ms\": %.3f, \"stddev_ms\": %.3f}"
             name domains scale (mean *. 1000.0) (sd *. 1000.0)))
      (List.rev !entries);
    Buffer.add_string buf "\n]\n";
    let oc = open_out "BENCH_join.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_join.json (%d entries)\n"
      (List.length !entries)
  end;
  List.rev !entries

(* Vectorized-execution ablation (DESIGN.md §12): the same scans,
   aggregations and joins through the batched kernels and through the
   row-at-a-time reference paths they replicate. Backing data for
   BENCH_scan.json (--json mode). *)
let scan_bench_table =
  lazy
    begin
      let open Graql in
      let schema =
        Schema.make
          [
            { Schema.name = "v"; dtype = Dtype.Int };
            { Schema.name = "g"; dtype = Dtype.Int };
            { Schema.name = "f"; dtype = Dtype.Float };
          ]
      in
      let t = Table.create ~name:"bench_scan" schema in
      let state = ref 7 in
      let rand bound =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      for i = 0 to 400_000 - 1 do
        Table.append_row t
          [
            Value.Int (rand 1000);
            Value.Int (i mod 64);
            Value.Float (float_of_int (rand 10_000) /. 7.0);
          ]
      done;
      t
    end

let with_row_path f =
  (* Force every reference path at once; the toggles are independent and
     each kernel consults its own. *)
  let rv = !Graql.Relop.vectorized
  and jv = !Graql.Join.use_int_fast
  and av = !Graql.Aggregate.vectorized in
  Graql.Relop.vectorized := false;
  Graql.Join.use_int_fast := false;
  Graql.Aggregate.vectorized := false;
  Fun.protect
    ~finally:(fun () ->
      Graql.Relop.vectorized := rv;
      Graql.Join.use_int_fast := jv;
      Graql.Aggregate.vectorized := av)
    f

let sweep_scan ?(json = false) () =
  print_endline
    "\n== vectorized kernels vs row-at-a-time reference (sequential, ms) ==";
  let t = Lazy.force scan_bench_table in
  let entries = ref [] in
  let bench name sel f =
    let vec, _ = time_stats ~reps:9 ~trim:4 f in
    let row, _ = time_stats ~reps:9 ~trim:4 (fun () -> with_row_path f) in
    entries := (name, sel, vec *. 1000.0, row *. 1000.0) :: !entries
  in
  List.iter
    (fun sel ->
      let pred =
        Graql.Row_expr.(Cmp (Lt, Col 0, Const (Graql.Value.Int (10 * sel))))
      in
      bench "select" sel (fun () -> ignore (Graql.Relop.select t pred)))
    [ 1; 10; 50; 90 ];
  let aggs =
    Graql.Aggregate.[ (Sum 0, "s"); (Count_star, "n"); (Avg 2, "avg") ]
  in
  bench "group_by" 100 (fun () ->
      ignore (Graql.Aggregate.group_by t ~keys:[ 1 ] ~aggs));
  bench "scalar_sum" 100 (fun () ->
      ignore (Graql.Aggregate.scalar t (Graql.Aggregate.Sum 0)));
  let left, right = join_bench_tables ~scale:8 in
  bench "hash_join" 100 (fun () ->
      ignore
        (Graql.Join.hash_join ~name:"bs" ~left ~right ~on:[ (0, 0) ] ()));
  let entries = List.rev !entries in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "kernel"; "sel(%)"; "row(ms)"; "vectorized(ms)"; "speedup" ]
       (List.map
          (fun (name, sel, vec, row) ->
            [
              name;
              string_of_int sel;
              Printf.sprintf "%.3f" row;
              Printf.sprintf "%.3f" vec;
              Printf.sprintf "%.1fx" (row /. vec);
            ])
          entries));
  (* Statistics-driven join order: the same logical query in both textual
     orders runs in the same time — the planner normalizes to the
     cardinality-chosen order either way. *)
  let ab =
    time_best (fun () ->
        ignore
          (Graql.run session
             "select o.price from table Offers as o, Products as p where \
              o.product = p.id and p.propertyNumeric_1 > 1900"))
  in
  let ba =
    time_best (fun () ->
        ignore
          (Graql.run session
             "select o.price from table Products as p, Offers as o where \
              o.product = p.id and p.propertyNumeric_1 > 1900"))
  in
  Printf.printf
    "planner order invariance: Offers,Products %s ms / Products,Offers %s ms\n"
    (ms ab) (ms ba);
  if json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i (name, sel, vec, row) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "  {\"name\": %S, \"selectivity\": %d, \"vectorized_ms\": %.3f, \
              \"row_ms\": %.3f, \"speedup\": %.2f}"
             name sel vec row (row /. vec)))
      entries;
    Buffer.add_string buf "\n]\n";
    let oc = open_out "BENCH_scan.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_scan.json (%d entries)\n" (List.length entries)
  end;
  entries

(* A Berlin server at the bench scale with one analyst account: the
   wire-protocol target of sweep_obs's traced-serve row. *)
let serve_bench_server () =
  let server = Graql.Server.create () in
  let session = Graql.Server.session server in
  Graql.Berlin.Gen.ingest_all ~scale:bench_scale session;
  let _ = Graql.Db.graph (Graql.Session.db session) in
  Graql.Server.add_user server ~name:"bench" ~role:Graql.Server.Analyst;
  server

let sweep_baseline_vs_engine () =
  print_endline
    "\n== CSR-indexed executor vs brute-force baseline (Q2 core path) ==";
  let rows =
    List.map
      (fun scale ->
        let s = make_session ~scale () in
        let d = Graql.Session.db s in
        let _ = Graql.Db.graph d in
        let params p = Graql.Db.find_param d p in
        let path =
          match
            Graql.Parser.parse_statement
              {|select * from graph ProductVtx (id = %Product1%)
                 --feature--> FeatureVtx ( )
                 <--feature-- ProductVtx ( ) into table B|}
          with
          | Graql.Ast.Select_graph { sg_path = Graql.Ast.M_path p; _ } -> p
          | _ -> assert false
        in
        let engine =
          time_best (fun () ->
              ignore
                (Graql.Path_exec.run_multipath ~db:d ~params
                   ~mode:Graql.Path_exec.Keep_all (Graql.Ast.M_path path)))
        in
        let baseline =
          time_best ~reps:1 (fun () ->
              ignore (Graql.Reference_exec.run_path ~db:d ~params path))
        in
        [
          string_of_int scale;
          ms baseline;
          ms engine;
          Printf.sprintf "%.0fx" (baseline /. engine);
        ])
      [ 1; 2; 4 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "scale"; "baseline(ms)"; "engine(ms)"; "speedup" ]
       rows)

let sweep_seed_strategy () =
  print_endline
    "\n== seed strategy ablation: key-index probe vs filtered scan ==";
  (* The same logical query written so the key equality is (a) detectable
     and (b) hidden behind an expression the detector won't touch. *)
  let rows =
    List.map
      (fun scale ->
        let s = make_session ~scale () in
        let d = Graql.Session.db s in
        let _ = Graql.Db.graph d in
        let keyed =
          time_best (fun () ->
              ignore
                (Graql.run s
                   "select FeatureVtx.id from graph ProductVtx (id = \
                    %Product1%) --feature--> FeatureVtx ( )"))
        in
        let scanned =
          time_best (fun () ->
              ignore
                (Graql.run s
                   "select FeatureVtx.id from graph ProductVtx (id + '' = \
                    %Product1%) --feature--> FeatureVtx ( )"))
        in
        [
          string_of_int scale;
          ms scanned;
          ms keyed;
          Printf.sprintf "%.1fx" (scanned /. keyed);
        ])
      [ 1; 4; 16 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "scale"; "scan-seed(ms)"; "key-seed(ms)"; "speedup" ]
       rows)

let sweep_selective_maintenance () =
  let appends = 200 and batch = 20 in
  Printf.printf
    "\n== view maintenance: %d consecutive %d-row Reviews appends, extend vs \
     full rebuild (ms) ==\n"
    appends batch;
  let quantile times q =
    let a = Array.copy times in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))
  in
  let rows =
    List.map
      (fun scale ->
        let s = make_session ~scale () in
        let d = Graql.Session.db s in
        let _ = Graql.Db.graph d in
        let counts = Graql.Berlin.Gen.counts ~scale in
        let counter = ref 0 in
        let reviews () =
          let b = Buffer.create 4096 in
          Buffer.add_string b
            "id,type,reviewFor,reviewer,reviewDate,title,text,ratings_1,ratings_2,ratings_3,ratings_4,publisher,date\n";
          for _ = 1 to batch do
            incr counter;
            Printf.bprintf b
              "rx%d,Review,p%d,u%d,2008-01-01,t,quite good,5,5,5,5,pub0,2008-01-01\n"
              !counter
              (!counter * 7919 mod counts.Graql.Berlin.Gen.n_products)
              (!counter * 31 mod counts.n_persons)
          done;
          Buffer.contents b
        in
        (* Append: only Reviews-derived views are extended by the new rows. *)
        let append =
          Array.init appends (fun _ ->
              let doc = reviews () in
              ignore
                (Graql.Script_exec.exec_stmt
                   ~loader:(fun _ -> doc)
                   d
                   (Graql.Parser.parse_statement "ingest table Reviews extra.csv"));
              time_once (fun () -> ignore (Graql.Db.graph d)))
        in
        (* Full: wipe the fingerprints so nothing can be reused. *)
        let full =
          Array.init appends (fun _ ->
              Graql.Db.set_view_fingerprints d [];
              Graql.Db.invalidate_graph d;
              time_once (fun () -> ignore (Graql.Db.graph d)))
        in
        let p50 a = quantile a 0.5 and p99 a = quantile a 0.99 in
        [
          string_of_int scale;
          ms (p50 full);
          ms (p99 full);
          ms (p50 append);
          ms (p99 append);
          Printf.sprintf "%.1fx" (p50 full /. p50 append);
        ])
      [ 1; 4; 16 ]
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:
         [ "scale"; "full p50"; "full p99"; "append p50"; "append p99"; "speedup (p50)" ]
       rows)

let sweep_fast_pred () =
  print_endline
    "\n== predicate fast path: unboxed column scan vs generic evaluator ==";
  let scale = 64 in
  let s = make_session ~scale () in
  let offers = Graql.Db.find_table_exn (Graql.Session.db s) "Offers" in
  let pred =
    Graql.Row_expr.(
      And
        ( Cmp (Gt, Col 4, Const (Graql.Value.Float 5000.0)),
          Cmp (Lt, Col 7, Const (Graql.Value.Int 7)) ))
  in
  let fast =
    match Graql_relational.Fast_pred.compile offers pred with
    | Some f -> f
    | None -> failwith "expected fast compile"
  in
  let n = Graql.Table.nrows offers in
  let run_fast () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if fast i then incr c
    done;
    !c
  in
  let run_generic () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      let get col = Graql.Table.get offers ~row:i ~col in
      if Graql.Row_expr.eval_bool get pred then incr c
    done;
    !c
  in
  assert (run_fast () = run_generic ());
  let tf = time_best ~reps:5 (fun () -> ignore (run_fast ())) in
  let tg = time_best ~reps:5 (fun () -> ignore (run_generic ())) in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "rows"; "generic(ms)"; "fast(ms)"; "speedup" ]
       [
         [
           string_of_int n;
           Printf.sprintf "%.3f" (tg *. 1000.0);
           Printf.sprintf "%.3f" (tf *. 1000.0);
           Printf.sprintf "%.1fx" (tg /. tf);
         ];
       ])

let sweep_regex_depth () =
  print_endline "\n== path regex {n}: cost vs repetition count (fig 10) ==";
  let s = make_session ~scale:4 () in
  let d = Graql.Session.db s in
  let _ = Graql.Db.graph d in
  let rows =
    List.map
      (fun n ->
        let q =
          Printf.sprintf
            "select * from graph ProductVtx (id = %%Product1%%) ( --[ ]--> [ \
             ] ){%d} into subgraph RD%d"
            n n
        in
        let t = time_best (fun () -> ignore (Graql.run s q)) in
        [ string_of_int n; ms t ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  print_endline
    (Graql_util.Text_table.render ~header:[ "{n}"; "time(ms)" ] rows)

(* SNB deep traversals (DESIGN.md §15) on the product-automaton engine,
   every answer checked against the CSV oracles before timing. The
   [_edges] rows time the automaton with traversed-edge noting on, the
   path [select * ... into subgraph] takes; their noted edges are checked
   against [Reference_exec]'s. Backing data for BENCH_snb.json (--json
   mode). *)
let sweep_snb ?(json = false) () =
  print_endline "\n== SNB deep traversals: product automaton ==";
  let scale = 6 in
  let s = Graql.create_session () in
  Graql.Snb.Gen.ingest_all ~scale s;
  let d = Graql.Session.db s in
  let _ = Graql.Db.graph d in
  let person = Graql.Snb.Reference.hub_person ~scale () in
  let comment, _ = Graql.Snb.Reference.deepest_comment ~scale () in
  (* Endpoint ids of the final step, the unit the oracles speak. *)
  let endpoints path =
    let res =
      Graql.Path_exec.run_multipath ~db:d
        ~params:(fun _ -> None)
        ~mode:Graql.Path_exec.Keep_all ~edges_needed:false
        (Graql.Ast.M_path path)
    in
    match res.Graql.Path_exec.comps with
    | [ c ] ->
        let col = Array.length c.Graql.Path_exec.slots - 1 in
        let u = res.Graql.Path_exec.universe in
        List.sort_uniq compare
          (Array.to_list
             (Array.map
                (fun row ->
                  let cell = row.(col) in
                  Graql.Vset.key_string
                    (Graql.Pack.vset_of u cell)
                    (Graql.Pack.id cell))
                c.Graql.Path_exec.rows))
    | _ -> []
  in
  (* Automaton runs take tens of microseconds here: best of 3 swings by
     half between runs, best of 25 stays inside the gate's tolerance. *)
  let rpq_reps = 25 in
  let noted_edges path =
    Graql.Path_exec.regex_edge_list
      (Graql.Path_exec.run ~db:d
         ~params:(fun _ -> None)
         ~mode:Graql.Path_exec.Keep_all ~edges_needed:true
         (Graql.Ast.M_path path))
  in
  let queries =
    [
      ( "knows_plus",
        Graql.Snb.Queries.path_knows_plus ~person,
        Graql.Snb.Reference.knows_plus ~scale ~person () );
      ( "knows_star",
        Graql.Snb.Queries.path_knows_star ~person,
        Graql.Snb.Reference.knows_star ~scale ~person () );
      ( "knows_knows_plus",
        Graql.Snb.Queries.path_knows_knows_plus ~person,
        Graql.Snb.Reference.knows_knows_plus ~scale ~person () );
      ( "reply_chain4",
        Graql.Snb.Queries.path_reply_chain ~comment ~n:4,
        Graql.Snb.Reference.reply_chain ~scale ~comment ~n:4 () );
      ( "thread_root",
        Graql.Snb.Queries.path_thread_root ~comment,
        Graql.Snb.Reference.thread_root_posts ~scale ~comment () );
    ]
  in
  let entries =
    List.map
      (fun (name, path, oracle) ->
        if endpoints path <> oracle then
          failwith (Printf.sprintf "snb %s: automaton answer != oracle" name);
        let rpq = time_best ~reps:rpq_reps (fun () -> ignore (endpoints path)) in
        (name, false, rpq))
      queries
  in
  let edge_entries =
    List.map
      (fun (name, path) ->
        let reference =
          Graql.Reference_exec.run_path ~db:d ~params:(fun _ -> None) path
        in
        if noted_edges path <> reference.Graql.Reference_exec.edges then
          failwith (Printf.sprintf "snb %s: noted edges != reference" name);
        let rpq =
          time_best ~reps:rpq_reps (fun () -> ignore (noted_edges path))
        in
        (name ^ "_edges", true, rpq))
      [
        ("knows_plus", Graql.Snb.Queries.path_knows_plus ~person);
        ("knows_knows_plus", Graql.Snb.Queries.path_knows_knows_plus ~person);
      ]
  in
  let entries = entries @ edge_entries in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "traversal"; "edges noted"; "automaton(ms)" ]
       (List.map
          (fun (name, edges_needed, rpq) ->
            [ name; string_of_bool edges_needed; ms rpq ])
          entries));
  if json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i (name, edges_needed, rpq) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf "  {\"name\": %S, \"scale\": %d, %s\"rpq_ms\": %.3f}"
             name scale
             (if edges_needed then "\"edges_needed\": true, " else "")
             (rpq *. 1000.0)))
      entries;
    Buffer.add_string buf "\n]\n";
    let oc = open_out "BENCH_snb.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_snb.json (%d entries)\n" (List.length entries)
  end;
  entries

(* Observability sweep: run the Berlin figure queries with tracing armed
   and report the per-stage latency histograms the instrumentation
   collected, plus the tracing overhead (traced vs. untraced wall time
   for the same query mix). Backing data for BENCH_obs.json (--json
   mode). *)
let sweep_obs ?(json = false) () =
  print_endline
    "\n== observability: per-stage histograms, tracing overhead ==";
  let queries =
    [
      Graql.Berlin.Queries.q1;
      Graql.Berlin.Queries.q2;
      Graql.Berlin.Queries.fig9_type_matching;
      Graql.Berlin.Queries.fig10_regex;
    ]
  in
  let run_all () = List.iter (fun q -> ignore (Graql.run session q)) queries in
  (* The query mix is ~1 ms; at the default 5 reps the traced/untraced
     ratio is noise-dominated and flaps the regression gate. *)
  let untraced_mean = time_best ~reps:30 run_all in
  Graql.Obs.Trace.clear ();
  Graql.Obs.Trace.arm ();
  Graql.Obs.Metrics.reset ();
  let traced_mean = time_best ~reps:30 run_all in
  Graql.Obs.Trace.disarm ();
  let sn = Graql.Obs.Metrics.snapshot () in
  (* Percentile over a log-scale histogram: the smallest bucket upper
     bound at which the cumulative count reaches the target rank. *)
  let percentile h q =
    let total = h.Graql.Obs.Metrics.h_count in
    let rank = Float.of_int total *. q in
    let rec scan cum = function
      | [] -> nan
      | (ub, n) :: rest ->
          let cum = cum + n in
          if Float.of_int cum >= rank then ub else scan cum rest
    in
    scan 0 h.Graql.Obs.Metrics.h_buckets
  in
  let stages =
    List.filter
      (fun (_, h) -> h.Graql.Obs.Metrics.h_count > 0)
      sn.Graql.Obs.Metrics.sn_histograms
  in
  let stage_stats =
    List.map
      (fun (name, h) ->
        let mean =
          h.Graql.Obs.Metrics.h_sum
          /. Float.of_int h.Graql.Obs.Metrics.h_count
        in
        ( name,
          h.Graql.Obs.Metrics.h_count,
          mean,
          percentile h 0.5,
          percentile h 0.99 ))
      stages
  in
  print_endline
    (Graql_util.Text_table.render
       ~header:[ "stage"; "count"; "mean(us)"; "p50(us)<="; "p99(us)<=" ]
       (List.map
          (fun (name, count, mean, p50, p99) ->
            [
              name;
              string_of_int count;
              Printf.sprintf "%.1f" mean;
              Printf.sprintf "%.0f" p50;
              Printf.sprintf "%.0f" p99;
            ])
          stage_stats));
  Printf.printf
    "query mix untraced %s ms, traced %s ms (%.2fx overhead)\n"
    (ms untraced_mean) (ms traced_mean)
    (traced_mean /. untraced_mean);
  (* Traced-serve overhead: the same read statement over the wire
     protocol, with tracing off vs. every statement carrying a fresh
     trace id (client span, traceparent on the frame, server admission /
     executor spans, exemplars). DESIGN.md §16 budgets this end-to-end
     cost at 1.5x; --check enforces it from the baseline. *)
  let serve_untraced, serve_traced =
    let ir =
      Graql.Ir.encode_script
        (Graql.Parser.parse_script
           "select vendor, count(*) as n from table Offers group by vendor")
    in
    let server = serve_bench_server () in
    let sv = Graql.Serve.start server in
    Fun.protect
      ~finally:(fun () ->
        Graql.Serve.stop sv;
        Graql.Session.close (Graql.Server.session server))
      (fun () ->
        let cl =
          Graql.Client.connect ~port:(Graql.Serve.port sv) ~user:"bench" ()
        in
        Fun.protect ~finally:(fun () -> Graql.Client.close cl) @@ fun () ->
        let stmts = 40 in
        let pass () =
          for _ = 1 to stmts do
            match Graql.Client.run_ir cl ir with
            | Graql.Client.Ok _ -> ()
            | _ -> failwith "obs sweep: serve statement failed"
          done
        in
        pass () (* warm: connection, typecheck, first scan *);
        Graql.Obs.Trace.disarm ();
        let untraced = time_best ~reps:10 pass in
        Graql.Obs.Trace.arm ();
        let traced = time_best ~reps:10 pass in
        Graql.Obs.Trace.disarm ();
        (untraced, traced))
  in
  Printf.printf
    "serve mix (%s) untraced %s ms, traced %s ms (%.2fx overhead, budget \
     1.50x)\n"
    "40 stmts over the wire" (ms serve_untraced) (ms serve_traced)
    (serve_traced /. serve_untraced);
  if json then begin
    let buf = Buffer.create 512 in
    Buffer.add_string buf "{\n  \"stages\": [\n";
    List.iteri
      (fun i (name, count, mean, p50, p99) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"stage\": %S, \"count\": %d, \"mean_us\": %.3f, \
              \"p50_us\": %.1f, \"p99_us\": %.1f}"
             name count mean p50 p99))
      stage_stats;
    Buffer.add_string buf
      (Printf.sprintf
         "\n  ],\n  \"overhead\": {\"untraced_ms\": %.3f, \"traced_ms\": \
          %.3f, \"ratio\": %.3f},\n  \"serve_overhead\": {\"untraced_ms\": \
          %.3f, \"traced_ms\": %.3f, \"ratio\": %.3f, \"budget\": 1.5}\n}\n"
         (untraced_mean *. 1000.0)
         (traced_mean *. 1000.0)
         (traced_mean /. untraced_mean)
         (serve_untraced *. 1000.0)
         (serve_traced *. 1000.0)
         (serve_traced /. serve_untraced));
    let oc = open_out "BENCH_obs.json" in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote BENCH_obs.json (%d stages)\n"
      (List.length stage_stats)
  end;
  (stage_stats, untraced_mean, traced_mean, serve_untraced, serve_traced)

(* ------------------------------------------------------------------ *)
(* Regression gate: bench --check [BASELINE.json ...]                  *)
(*                                                                     *)
(* Re-runs the sweeps behind the committed BENCH_*.json baselines and  *)
(* compares throughput (or its latency inverse) against them. Any      *)
(* metric more than GRAQL_BENCH_TOLERANCE (default 0.25 = 25%) worse   *)
(* than its baseline fails the gate: exit 9. Baselines are classified  *)
(* by JSON shape, so explicit file arguments can be given in any       *)
(* order; with no arguments all three defaults are checked (missing    *)
(* files warn and are skipped). Nothing is rewritten: --check never    *)
(* touches the baseline files.                                         *)

module Json = Graql_util.Json

let check_tolerance () =
  match Sys.getenv_opt "GRAQL_BENCH_TOLERANCE" with
  | None | Some "" -> 0.25
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 && Float.is_finite f -> f
      | _ ->
          Printf.eprintf
            "bench: warning: ignoring GRAQL_BENCH_TOLERANCE=%S (want a \
             positive number); using 0.25\n%!"
            s;
          0.25)

(* One comparison row. [higher_better] decides the direction of
   "worse": throughput regresses when it drops, latency when it rises. *)
type check_row = {
  ck_metric : string;
  ck_base : float;
  ck_cur : float;
  ck_higher_better : bool;
}

let row_regressed ~tolerance r =
  if r.ck_base <= 0.0 || not (Float.is_finite r.ck_base) then false
  else if r.ck_higher_better then r.ck_cur < r.ck_base *. (1.0 -. tolerance)
  else r.ck_cur > r.ck_base *. (1.0 +. tolerance)

let row_change r =
  if r.ck_base <= 0.0 then 0.0 else (r.ck_cur -. r.ck_base) /. r.ck_base

(* The current sweep results, computed at most once per gate run even
   when several baseline files map to the same sweep. *)
let current_join = lazy (sweep_join_parallel ())
let current_snb = lazy (sweep_snb ())
let current_recovery = lazy (sweep_recovery ())
let current_obs = lazy (sweep_obs ())
let current_scan = lazy (sweep_scan ())

let num_field obj name =
  Option.bind (Json.member name obj) Json.to_float

let check_join baseline =
  let current = Lazy.force current_join in
  List.filter_map
    (fun entry ->
      match
        ( Option.bind (Json.member "name" entry) Json.to_string_opt,
          num_field entry "domains",
          num_field entry "mean_ms" )
      with
      | Some name, Some domains, Some base_ms -> (
          let domains = int_of_float domains in
          match
            List.find_opt (fun (n, d, _, _) -> n = name && d = domains) current
          with
          | Some (_, _, mean, _) ->
              Some
                {
                  ck_metric =
                    Printf.sprintf "join:%s/domains=%d mean_ms" name domains;
                  ck_base = base_ms;
                  ck_cur = mean *. 1000.0;
                  ck_higher_better = false;
                }
          | None -> None)
      | _ -> None)
    (Option.value (Json.to_list baseline) ~default:[])

(* The SNB sweep gates the automaton engine's latency per traversal. *)
let check_snb baseline =
  let current = Lazy.force current_snb in
  List.filter_map
    (fun entry ->
      match
        ( Option.bind (Json.member "name" entry) Json.to_string_opt,
          num_field entry "rpq_ms" )
      with
      | Some name, Some base_ms -> (
          match List.find_opt (fun (n, _, _) -> n = name) current with
          | Some (_, _, rpq) ->
              Some
                {
                  ck_metric = Printf.sprintf "snb:%s rpq_ms" name;
                  ck_base = base_ms;
                  ck_cur = rpq *. 1000.0;
                  ck_higher_better = false;
                }
          | None -> None)
      | _ -> None)
    (Option.value (Json.to_list baseline) ~default:[])

let check_recovery baseline =
  let current = Lazy.force current_recovery in
  List.concat_map
    (fun entry ->
      match num_field entry "scale" with
      | None -> []
      | Some scale -> (
          let scale = int_of_float scale in
          match
            List.find_opt (fun (s, _, _, _, _, _, _) -> s = scale) current
          with
          | None -> []
          | Some (_, n, _, t_replay, _, _, t_repl) ->
              let replay =
                match num_field entry "replay_records_per_s" with
                | Some base_tput ->
                    [
                      {
                        ck_metric =
                          Printf.sprintf
                            "recovery:scale=%d replay_records_per_s" scale;
                        ck_base = base_tput;
                        ck_cur = float_of_int n /. t_replay;
                        ck_higher_better = true;
                      };
                    ]
                | None -> []
              in
              (* Baselines written before replication landed lack this
                 field; they gate only the replay metric. *)
              let repl =
                match num_field entry "repl_records_per_s" with
                | Some base_tput when t_repl > 0.0 ->
                    [
                      {
                        ck_metric =
                          Printf.sprintf
                            "recovery:scale=%d repl_records_per_s" scale;
                        ck_base = base_tput;
                        ck_cur = float_of_int n /. t_repl;
                        ck_higher_better = true;
                      };
                    ]
                | _ -> []
              in
              replay @ repl))
    (Option.value (Json.to_list baseline) ~default:[])

let check_obs baseline =
  let _, untraced, traced, serve_untraced, serve_traced =
    Lazy.force current_obs
  in
  let local =
    match
      Option.bind (Json.member "overhead" baseline) (fun o ->
          num_field o "ratio")
    with
    | Some base_ratio ->
        [
          {
            ck_metric = "obs:tracing overhead ratio";
            ck_base = base_ratio;
            ck_cur = traced /. untraced;
            ck_higher_better = false;
          };
        ]
    | None -> []
  in
  let serve =
    match Json.member "serve_overhead" baseline with
    | Some o ->
        let cur = serve_traced /. serve_untraced in
        let vs_base =
          match num_field o "ratio" with
          | Some base_ratio ->
              [
                {
                  ck_metric = "obs:traced-serve overhead ratio";
                  (* A sub-1.0 baseline means the traced pass happened
                     to beat the untraced one — wire-latency noise, not
                     a real negative cost. Clamp so drift is judged
                     against parity, not against a lucky run. *)
                  ck_base = Float.max base_ratio 1.0;
                  ck_cur = cur;
                  ck_higher_better = false;
                };
              ]
          | None -> []
        in
        (* The 1.5x budget is absolute, not drift-relative: scale the
           row's base so [row_regressed]'s (1 + tolerance) slack lands
           exactly on the budget — the gate fails iff cur > budget. *)
        let vs_budget =
          match num_field o "budget" with
          | Some budget when budget > 0.0 ->
              [
                {
                  ck_metric =
                    Printf.sprintf "obs:traced-serve budget %.2fx" budget;
                  ck_base = budget /. (1.0 +. check_tolerance ());
                  ck_cur = cur;
                  ck_higher_better = false;
                };
              ]
          | _ -> []
        in
        vs_base @ vs_budget
    | None -> []
  in
  local @ serve

let check_scan baseline =
  let current = Lazy.force current_scan in
  List.filter_map
    (fun entry ->
      match
        ( Option.bind (Json.member "name" entry) Json.to_string_opt,
          num_field entry "selectivity",
          num_field entry "vectorized_ms" )
      with
      | Some name, Some sel, Some base_ms -> (
          let sel = int_of_float sel in
          match
            List.find_opt (fun (n, s, _, _) -> n = name && s = sel) current
          with
          | Some (_, _, vec_ms, _) ->
              Some
                {
                  ck_metric =
                    Printf.sprintf "scan:%s/sel=%d vectorized_ms" name sel;
                  ck_base = base_ms;
                  ck_cur = vec_ms;
                  ck_higher_better = false;
                }
          | None -> None)
      | _ -> None)
    (Option.value (Json.to_list baseline) ~default:[])

(* A baseline file is classified by shape, not by name: an object with
   "overhead" is the obs sweep; an array whose entries carry
   "wal_records" is the recovery sweep; an array with "selectivity" is
   the vectorized-kernel sweep; an array with "domains" is the join
   sweep. *)
let classify_baseline json =
  match json with
  | Json.Obj _ when Json.member "overhead" json <> None -> Some `Obs
  | Json.Arr (first :: _) when Json.member "wal_records" first <> None ->
      Some `Recovery
  | Json.Arr (first :: _) when Json.member "selectivity" first <> None ->
      Some `Scan
  | Json.Arr (first :: _) when Json.member "rpq_ms" first <> None ->
      Some `Snb
  | Json.Arr (first :: _) when Json.member "domains" first <> None ->
      Some `Join
  | _ -> None

let run_check baselines =
  let tolerance = check_tolerance () in
  Printf.printf "\n== regression gate (tolerance %.0f%%) ==\n"
    (tolerance *. 100.0);
  let rows =
    List.concat_map
      (fun path ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "bench: warning: baseline %s missing, skipped\n%!"
            path;
          []
        end
        else
          let doc =
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          match Json.parse doc with
          | Error msg ->
              Printf.eprintf "bench: warning: baseline %s unreadable (%s), \
                              skipped\n%!"
                path msg;
              []
          | Ok json -> (
              match classify_baseline json with
              | Some `Join -> check_join json
              | Some `Recovery -> check_recovery json
              | Some `Obs -> check_obs json
              | Some `Scan -> check_scan json
              | Some `Snb -> check_snb json
              | None ->
                  Printf.eprintf
                    "bench: warning: baseline %s has an unknown shape, \
                     skipped\n%!"
                    path;
                  []))
      baselines
  in
  if rows = [] then begin
    Printf.eprintf "bench: no baseline metrics compared\n%!";
    1
  end
  else begin
    let regressed = List.filter (row_regressed ~tolerance) rows in
    print_endline
      (Graql_util.Text_table.render
         ~header:[ "metric"; "baseline"; "current"; "change"; "status" ]
         (List.map
            (fun r ->
              [
                r.ck_metric;
                Printf.sprintf "%.3f" r.ck_base;
                Printf.sprintf "%.3f" r.ck_cur;
                Printf.sprintf "%+.1f%%" (row_change r *. 100.0);
                (if row_regressed ~tolerance r then "REGRESSED" else "ok");
              ])
            rows));
    if regressed = [] then begin
      Printf.printf "gate passed: %d metric(s) within %.0f%% of baseline\n"
        (List.length rows) (tolerance *. 100.0);
      0
    end
    else begin
      Printf.printf "gate FAILED: %d of %d metric(s) regressed > %.0f%%\n"
        (List.length regressed) (List.length rows) (tolerance *. 100.0);
      9
    end
  end

let default_baselines =
  [
    "BENCH_join.json"; "BENCH_recovery.json"; "BENCH_obs.json";
    "BENCH_scan.json"; "BENCH_snb.json";
  ]

let () =
  Printf.printf "GraQL benchmark harness — scale %d (%d products), %s\n\n"
    bench_scale (100 * bench_scale)
    (Printf.sprintf "%d domains available" (Domain.recommended_domain_count ()));
  let argv = Array.to_list Sys.argv in
  if List.mem "--check" argv then begin
    (* Regression gate: compare fresh sweeps against committed baselines
       (positional arguments after --check, or the default three). *)
    let baselines =
      List.filter
        (fun a ->
          not (String.length a >= 2 && String.sub a 0 2 = "--"))
        (List.tl argv)
    in
    let baselines = if baselines = [] then default_baselines else baselines in
    exit (run_check baselines)
  end;
  if List.mem "--json" argv then begin
    (* Machine-readable sweeps only: one BENCH_*.json per gated sweep. *)
    ignore (sweep_join_parallel ~json:true ());
    ignore (sweep_recovery ~json:true ());
    ignore (sweep_obs ~json:true ());
    ignore (sweep_scan ~json:true ());
    ignore (sweep_snb ~json:true ());
    exit 0
  end;
  run_bechamel ();
  sweep_scales ();
  sweep_view_build ();
  sweep_planner ();
  sweep_script_parallel ();
  ignore (sweep_recovery ());
  ignore (sweep_join_parallel ());
  ignore (sweep_scan ());
  sweep_baseline_vs_engine ();
  sweep_seed_strategy ();
  sweep_fast_pred ();
  sweep_selective_maintenance ();
  sweep_regex_depth ();
  ignore (sweep_snb ());
  ignore (sweep_obs ());
  print_endline "\ndone."
