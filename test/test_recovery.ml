(* Deterministic crash-injection harness for the durability subsystem
   (DESIGN.md §9).

   The drill: run the Berlin DDL + ingest under a write-ahead log, then
   simulate a crash at EVERY record boundary — and at mid-record offsets —
   by truncating the log, recover into a fresh database, and require the
   recovered state to be byte-identical (manifest digest) to a clean
   database that applied the same WAL prefix. Corruption that the
   torn-tail rule cannot explain must raise the typed Io error instead of
   recovering silently. The whole matrix runs at 1 and 4 domains. *)

module Db = Graql_engine.Db
module Db_io = Graql_engine.Db_io
module Wal = Graql_engine.Wal
module Ddl_exec = Graql_engine.Ddl_exec
module Script_exec = Graql_engine.Script_exec
module Graql_error = Graql_engine.Graql_error
module Session = Graql_gems.Session
module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Pool = Graql_parallel.Domain_pool
module Berlin_schema = Graql_berlin.Berlin_schema
module Berlin_gen = Graql_berlin.Berlin_gen
module Berlin_queries = Graql_berlin.Berlin_queries
module Value = Graql_storage.Value

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- filesystem helpers ---------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "graql_recovery" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  doc

let write_file path doc =
  let oc = open_out_bin path in
  output_string oc doc;
  close_out oc

let rec copy_dir src dst =
  Sys.mkdir dst 0o700;
  Array.iter
    (fun f ->
      let s = Filename.concat src f and d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d else write_file d (read_file s))
    (Sys.readdir src)

(* ---------- state fingerprinting ---------- *)

(* The manifest lists every exported file with its MD5 and size, so its
   digest is a byte-level fingerprint of the whole database state
   (tables, schema DDL, session parameters). *)
let digest db = Digest.to_hex (Digest.string (Db_io.manifest_of_files (Db_io.export_files db)))

let fresh_db () =
  let db = Db.create () in
  Ddl_exec.install db;
  db

let apply_record db = function
  | Wal.R_stmt stmt -> ignore (Script_exec.exec_stmt db stmt)
  | Wal.R_ingest { table; file; doc } ->
      ignore
        (Script_exec.exec_stmt
           ~loader:(fun _ -> doc)
           db
           (Ast.Ingest { ing_table = table; ing_file = file; ing_loc = Loc.dummy }))

(* ---------- the durable Berlin run ---------- *)

let berlin_script =
  Berlin_schema.full_ddl ^ "\n"
  ^ Berlin_schema.ingest_script Berlin_gen.table_files

(* Run the Berlin workload under durability and "crash": abandon the
   session without checkpoint or close, leaving exactly what a SIGKILL
   after the final statement would — every record fsync'd in the WAL. *)
let populate ~domains dir =
  let pool = Pool.create ~domains () in
  let session =
    Session.create ~pool ~durability:(Session.Wal_dir dir)
      ~checkpoint_bytes:max_int ()
  in
  let results =
    Session.run_script ~loader:(Berlin_gen.loader ~scale:1 ()) session
      berlin_script
  in
  List.iter
    (fun (_, outcome) ->
      match outcome with
      | Script_exec.O_failed e ->
          Alcotest.failf "Berlin statement failed: %s" (Graql_error.to_string e)
      | _ -> ())
    results;
  digest (Session.db session)

let wal_path_of dir = Filename.concat dir (Wal.file_name ~epoch:0)

let recover_dir dir =
  let db = fresh_db () in
  let r = Db_io.recover db ~dir in
  (db, r)

(* ---------- the crash matrix ---------- *)

let crash_matrix ~domains () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  let final_digest = populate ~domains data in
  let scan = Wal.scan_file (wal_path_of data) in
  let records = Array.of_list scan.Wal.s_records in
  let boundaries = Array.of_list scan.Wal.s_boundaries in
  check_int "no torn tail after a clean run" 0 scan.Wal.s_torn;
  check_int "one boundary per record, plus the header"
    (Array.length records + 1)
    (Array.length boundaries);
  (* Reference states: digests.(k) fingerprints a clean database that
     applied exactly the first k WAL records. *)
  let digests = Array.make (Array.length records + 1) "" in
  let ref_db = fresh_db () in
  digests.(0) <- digest ref_db;
  Array.iteri
    (fun i r ->
      apply_record ref_db r;
      digests.(i + 1) <- digest ref_db)
    records;
  check_str "replaying the whole log reproduces the session state"
    final_digest
    digests.(Array.length records);
  let crash_at ~label offset ~expect_replayed ~expect_torn =
    let scratch = Filename.concat base "crash" in
    copy_dir data scratch;
    Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
    Wal.truncate_file (wal_path_of scratch) offset;
    let db, r = recover_dir scratch in
    check_int (label ^ ": records replayed") expect_replayed
      r.Db_io.rec_replayed;
    if not expect_torn then
      check_int (label ^ ": nothing dropped") 0 r.Db_io.rec_truncated;
    if expect_torn then
      Alcotest.(check bool) (label ^ ": torn bytes dropped") true
        (r.Db_io.rec_truncated > 0);
    check_str
      (label ^ ": byte-identical to the clean prefix")
      digests.(expect_replayed) (digest db)
  in
  (* Every record boundary: a crash exactly between appends. *)
  Array.iteri
    (fun k offset ->
      crash_at
        ~label:(Printf.sprintf "boundary %d/%d" k (Array.length records))
        offset ~expect_replayed:k ~expect_torn:false)
    boundaries;
  (* Mid-record offsets: a crash mid-append leaves a torn tail that must
     be truncated back to the previous boundary. Cut inside the frame
     header, just into the payload, and mid-payload of several records. *)
  let n = Array.length records in
  let mid_cuts =
    List.concat_map
      (fun k ->
        let b = boundaries.(k) and e = boundaries.(k + 1) in
        [ (k, b + 3); (k, b + 9); (k, (b + e) / 2) ])
      [ 0; n / 2; n - 1 ]
  in
  List.iter
    (fun (k, offset) ->
      if offset > boundaries.(k) && offset < boundaries.(k + 1) then
        crash_at
          ~label:(Printf.sprintf "mid-record %d at %d" (k + 1) offset)
          offset ~expect_replayed:k ~expect_torn:true)
    mid_cuts;
  (* A crash inside the 13-byte file header: the partial header is torn
     bytes like any other tail, and recovery restarts empty. *)
  crash_at ~label:"torn header" (Wal.header_size / 2) ~expect_replayed:0
    ~expect_torn:true

(* ---------- corruption that is NOT a torn tail ---------- *)

let test_midfile_corruption () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  ignore (populate ~domains:1 data);
  let scan = Wal.scan_file (wal_path_of data) in
  let boundaries = Array.of_list scan.Wal.s_boundaries in
  Alcotest.(check bool) "enough records to corrupt mid-file" true
    (Array.length boundaries > 4);
  (* Flip one payload byte of the second record: its CRC now fails with
     more log data following — a crash cannot produce that, so recovery
     must refuse with the typed Io error, not silently drop the tail. *)
  let doc = read_file (wal_path_of data) in
  let pos = boundaries.(1) + 8 in
  let b = Bytes.of_string doc in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  write_file (wal_path_of data) (Bytes.to_string b);
  (match recover_dir data with
  | _ -> Alcotest.fail "recovery accepted mid-file corruption"
  | exception Graql_error.Error (Graql_error.Io _) -> ());
  (* Same flip in the header magic: also typed Io. *)
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  Bytes.set b 0 'X';
  write_file (wal_path_of data) (Bytes.to_string b);
  match recover_dir data with
  | _ -> Alcotest.fail "recovery accepted a mangled header"
  | exception Graql_error.Error (Graql_error.Io _) -> ()

(* ---------- checkpoints ---------- *)

let test_checkpoint_fold_and_crash () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  let final_digest = populate ~domains:1 data in
  (* Reopen, checkpoint, and keep going: the log folds into a snapshot,
     the epoch advances, superseded files disappear. *)
  let session =
    Session.create ~durability:(Session.Wal_dir data) ~checkpoint_bytes:max_int ()
  in
  check_str "recovery reproduced the session" final_digest
    (digest (Session.db session));
  Alcotest.(check bool) "checkpoint succeeds" true (Session.checkpoint session);
  Alcotest.(check bool) "epoch-0 WAL deleted" false
    (Sys.file_exists (wal_path_of data));
  Alcotest.(check bool) "epoch-1 WAL live" true
    (Sys.file_exists (Filename.concat data (Wal.file_name ~epoch:1)));
  ignore
    (Session.run_script session "set %after_checkpoint% = 1");
  Session.close session;
  (* Crash after the post-checkpoint statement: recovery = snapshot +
     one-record replay. *)
  let db, r = recover_dir data in
  Alcotest.(check bool) "recovered from the checkpoint" true
    r.Db_io.rec_checkpoint;
  check_int "checkpoint epoch" 1 r.Db_io.rec_epoch;
  check_int "tail replayed on top" 1 r.Db_io.rec_replayed;
  Alcotest.(check bool) "post-checkpoint parameter survives" true
    (Db.find_param db "after_checkpoint" = Some (Value.Int 1));
  (* Crash DURING the post-checkpoint append: truncate the epoch-1 log
     mid-record; state must fall back to exactly the checkpoint. *)
  let wal1 = Filename.concat data (Wal.file_name ~epoch:1) in
  Wal.truncate_file wal1 (Wal.header_size + 2);
  let db2, r2 = recover_dir data in
  check_int "no records survive the torn epoch-1 tail" 0 r2.Db_io.rec_replayed;
  check_str "checkpoint state intact" final_digest (digest db2)

(* ---------- kill after the final statement (acceptance criterion) ---------- *)

let test_kill_then_identical_queries () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  ignore (populate ~domains:1 data);
  (* Survivor: a brand-new durable session over the crashed directory. *)
  let survivor = Session.create ~durability:(Session.Wal_dir data) () in
  (* Clean twin: same workload, never crashed, never durable. *)
  let clean = Session.create () in
  ignore
    (Session.run_script ~loader:(Berlin_gen.loader ~scale:1 ()) clean
       berlin_script);
  List.iter
    (fun session ->
      let db = Session.db session in
      Db.set_param db "Country1" (Value.Str "US");
      Db.set_param db "Country2" (Value.Str "DE"))
    [ survivor; clean ];
  List.iter
    (fun (name, q) ->
      let render session =
        Session.run_script session q
        |> List.map (fun (_, o) ->
               match o with
               | Script_exec.O_table t -> Graql_storage.Table.to_display_string t
               | Script_exec.O_subgraph sg -> Graql_graph.Subgraph.summary sg
               | Script_exec.O_message m -> m
               | Script_exec.O_failed e -> Graql_error.to_string e)
        |> String.concat "\n"
      in
      check_str
        (Printf.sprintf "query %s: identical results after recovery" name)
        (render clean) (render survivor))
    [ ("q1", Berlin_queries.q1); ("eq12", Berlin_queries.eq12_structural) ];
  Session.close survivor

(* ---------- registration order of parallel results ---------- *)

(* Independent selects into named results share one parallel wave. They
   must register in statement order — the order the WAL logs them and
   recovery replays them — whatever order they complete in. *)
let wave_script =
  let table i q = Printf.sprintf "select %s into table R%d" q i
  and subgraph i q = Printf.sprintf "select %s into subgraph S%d" q i in
  String.concat "\n"
    [
      table 0 "* from table Products";
      table 1 "OfferVtx.id from graph OfferVtx ( ) --vendor--> VendorVtx ( )";
      subgraph 0 "* from graph OfferVtx ( ) --product--> ProductVtx ( )";
      table 2
        "o.id, p.label from table Offers as o, Products as p where o.product \
         = p.id";
      table 3 "ProductVtx.id from graph ProductVtx ( ) --feature--> FeatureVtx ( )";
      subgraph 1 "* from graph ProductVtx ( ) ( --type--> TypeVtx ( ) )+";
      table 4 "* from table Persons";
      table 5 "ReviewVtx.id from graph ReviewVtx ( ) --reviewer--> PersonVtx ( )";
      subgraph 2 "ReviewVtx from graph ReviewVtx ( ) --reviewFor--> ProductVtx ( )";
      table 6
        "o.id, v.country from table Offers as o, Vendors as v where o.vendor \
         = v.id";
      table 7 "ProductVtx.id from graph ProductVtx ( ) --producer--> ProducerVtx ( )";
      subgraph 3 "* from graph TypeVtx ( ) ( --subclass--> TypeVtx ( ) )*";
    ]

let result_tables db =
  List.filter
    (fun n -> String.length n = 2 && n.[0] = 'R')
    (Graql_storage.Table_catalog.names (Db.tables db))

let test_parallel_registration_order () =
  with_temp_dir @@ fun base ->
  let setup = Filename.concat base "setup" in
  ignore (populate ~domains:1 setup);
  check_int "one wave" 0
    (List.length
       (Script_exec.dependence_edges ~view_reads:(fun _ -> false)
          (Graql_lang.Parser.parse_script wave_script)));
  let tables = List.init 8 (Printf.sprintf "R%d")
  and subgraphs = List.init 4 (Printf.sprintf "S%d") in
  let saved = !Graql_relational.Join.par_threshold in
  Graql_relational.Join.par_threshold := 1;
  Fun.protect ~finally:(fun () -> Graql_relational.Join.par_threshold := saved)
  @@ fun () ->
  for run = 1 to 30 do
    let data = Filename.concat base (Printf.sprintf "run%d" run) in
    copy_dir setup data;
    let pool = Pool.create ~domains:4 () in
    let session = Session.create ~pool ~durability:(Session.Wal_dir data) () in
    List.iter
      (fun (_, outcome) ->
        match outcome with
        | Script_exec.O_failed e ->
            Alcotest.failf "run %d: %s" run (Graql_error.to_string e)
        | _ -> ())
      (Session.run_script session wave_script);
    let live = Session.db session in
    let what fmt = Printf.sprintf ("run %d: " ^^ fmt) run in
    Alcotest.(check (list string)) (what "catalog order") tables (result_tables live);
    Alcotest.(check (list string)) (what "subgraph order") subgraphs
      (Db.subgraph_names live);
    let recovered, _ = recover_dir data in
    Alcotest.(check (list string)) (what "recovered subgraph order") subgraphs
      (Db.subgraph_names recovered);
    check_str (what "export after recovery") (digest live) (digest recovered);
    Session.close session;
    Pool.shutdown pool;
    rm_rf data
  done

let () =
  Alcotest.run "recovery"
    [
      ( "crash-matrix",
        [
          Alcotest.test_case "1 domain" `Quick (crash_matrix ~domains:1);
          Alcotest.test_case "4 domains" `Quick (crash_matrix ~domains:4);
        ] );
      ( "corruption",
        [ Alcotest.test_case "mid-file" `Quick test_midfile_corruption ] );
      ( "checkpoint",
        [
          Alcotest.test_case "fold and crash" `Quick
            test_checkpoint_fold_and_crash;
        ] );
      ( "kill-after-final-statement",
        [
          Alcotest.test_case "identical Berlin query results" `Quick
            test_kill_then_identical_queries;
        ] );
      ( "parallel-results",
        [
          Alcotest.test_case "registered in statement order" `Quick
            test_parallel_registration_order;
        ] );
    ]
