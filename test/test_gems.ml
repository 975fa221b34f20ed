(* GEMS pipeline tests: session flow (parse -> check -> IR -> execute),
   strict rejection, catalog service, fault injection and recovery,
   cluster capacity planning. *)

module Session = Graql_gems.Session
module Fault = Graql_gems.Fault
module Db = Graql_engine.Db
module Script_exec = Graql_engine.Script_exec
module Graql_error = Graql_engine.Graql_error
module Pool = Graql_parallel.Domain_pool
module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema
module Dtype = Graql_storage.Dtype

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let mini_schema =
  {|
create table T(id varchar(8), n integer)
create vertex V(id) from table T
ingest table T t.csv
|}

let loader _ = "id,n\na,1\nb,2\nc,3\n"

(* ------------------------------------------------------------------ *)

let test_session_happy_path () =
  let s = Session.create () in
  let results = Session.run_script ~loader s mini_schema in
  check_int "four statements" 3 (List.length results);
  check "no diagnostics" true (Session.last_diagnostics s = []);
  check "ir was shipped" true (Session.ir_bytes_shipped s > 0)

let test_session_strict_rejection () =
  let s = Session.create () in
  ignore (Session.run_script ~loader s mini_schema);
  match Session.run_script s "select zzz from table T" with
  | _ -> Alcotest.fail "expected rejection"
  | exception Graql_error.Error (Graql_error.Analysis diags) ->
      check "has errors" true (Graql_analysis.Diag.has_errors diags)

let test_session_nonstrict_mode () =
  (* Non-strict: static errors do not block; execution then fails (or not)
     on its own terms, surfacing as a typed per-statement outcome. *)
  let s = Session.create ~strict:false () in
  ignore (Session.run_script ~loader s mini_schema);
  match Session.run_script s "select zzz from table T" with
  | [ (_, Script_exec.O_failed (Graql_error.Exec _)) ] -> ()
  | _ -> Alcotest.fail "execution should still fail on unknown column"

let test_check_does_not_execute () =
  let s = Session.create () in
  ignore (Session.run_script ~loader s mini_schema);
  let before = Table.nrows (Db.find_table_exn (Session.db s) "T") in
  let diags = Session.check s "ingest table T t.csv" in
  check "check is clean" false (Graql_analysis.Diag.has_errors diags);
  check_int "no data touched" before
    (Table.nrows (Db.find_table_exn (Session.db s) "T"))

let test_run_ir_directly () =
  let s = Session.create () in
  ignore (Session.run_script ~loader s mini_schema);
  let blob =
    Graql_ir.Codec.encode_script
      (Graql_lang.Parser.parse_script "select id from table T where n > 1")
  in
  match Session.run_ir s blob with
  | [ (_, Script_exec.O_table t) ] -> check_int "two rows" 2 (Table.nrows t)
  | _ -> Alcotest.fail "expected one table"

let test_catalog_rows () =
  let s = Session.create () in
  ignore (Session.run_script ~loader s mini_schema);
  let rows = Session.catalog_rows s in
  check "table listed with size" true
    (List.exists (fun r -> r = [ "table"; "T"; "3" ]) rows);
  check "vertex listed" true
    (List.exists (function [ "vertex"; "V"; _ ] -> true | _ -> false) rows)

let test_session_warnings_do_not_block () =
  let s = Session.create () in
  ignore (Session.run_script ~loader s mini_schema);
  (* An empty result table triggers a feasibility warning downstream. *)
  ignore
    (Session.run_script s
       "select id from table T where n > 100 into table Empty");
  match Session.run_script s "select id from table Empty" with
  | [ (_, Script_exec.O_table t) ] ->
      check_int "empty result, no rejection" 0 (Table.nrows t)
  | _ -> Alcotest.fail "expected table"

(* ------------------------------------------------------------------ *)
(* Server: access control, accounts, audit (Sec. III component 2)      *)

module Server = Graql_gems.Server

let test_server_roles () =
  let srv = Server.create () in
  Server.add_user srv ~name:"root" ~role:Server.Admin;
  Server.add_user srv ~name:"ann" ~role:Server.Analyst;
  let root = Server.connect srv ~user:"root" in
  let ann = Server.connect srv ~user:"ann" in
  (* Admin provisions the database. *)
  ignore (Server.run ~loader root mini_schema);
  (* Analyst may query... *)
  (match Server.run ann "select id from table T where n >= 2" with
  | [ (_, Script_exec.O_table t) ] -> check_int "analyst query" 2 (Table.nrows t)
  | _ -> Alcotest.fail "expected table");
  (* ...and bind parameters... *)
  ignore (Server.run ann "set %N% = 2");
  (* ...but not write. *)
  (match Server.run ~loader ann "ingest table T t.csv" with
  | _ -> Alcotest.fail "expected denial"
  | exception Graql_error.Error (Graql_error.Denied msg) ->
      check "names the user" true (String.length msg > 0));
  (* Authorization is all-or-nothing: the select before the ingest must
     not have executed either. *)
  (match
     Server.run ~loader ann
       {|select id from table T into table Leak
         ingest table T t.csv|}
   with
  | _ -> Alcotest.fail "expected denial"
  | exception Graql_error.Error (Graql_error.Denied _) ->
      check "nothing leaked" true
        (Db.find_table (Session.db (Server.session srv)) "Leak" = None));
  check_int "table untouched" 3
    (Table.nrows (Db.find_table_exn (Session.db (Server.session srv)) "T"))

let test_server_accounts_and_audit () =
  let srv = Server.create () in
  Server.add_user srv ~name:"root" ~role:Server.Admin;
  Server.add_user srv ~name:"ann" ~role:Server.Analyst;
  Alcotest.check_raises "duplicate user" (Failure "user \"ann\" already exists")
    (fun () -> Server.add_user srv ~name:"ann" ~role:Server.Admin);
  (match Server.connect srv ~user:"bob" with
  | _ -> Alcotest.fail "expected unknown user"
  | exception Server.Unknown_user u -> Alcotest.(check string) "user" "bob" u);
  let root = Server.connect srv ~user:"root" in
  ignore (Server.run ~loader root mini_schema);
  let ann = Server.connect srv ~user:"ann" in
  ignore (Server.run ann "select id from table T");
  (try ignore (Server.run ~loader ann "ingest table T t.csv")
   with Graql_error.Error (Graql_error.Denied _) -> ());
  let stats = Server.user_stats srv in
  check "ann stats" true (List.mem ("ann", 1, 1) stats);
  check "root stats" true (List.mem ("root", 3, 0) stats);
  let log = Server.audit_log srv in
  check_int "audit entries" 4 (List.length log);
  check "audit order" true (fst (List.hd log) = "root");
  check "last entry is ann's select" true
    (match List.rev log with ("ann", _) :: _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)

let test_loader_failure_mid_script () =
  let s = Session.create () in
  let flaky name = if name = "t.csv" then raise (Sys_error "disk gone") else "" in
  (* The failing ingest reports a typed per-statement outcome; the rest of
     the script still ran. *)
  (match Session.run_script ~loader:flaky s mini_schema with
  | results -> (
      check_int "all statements reported" 3 (List.length results);
      match List.rev results with
      | (_, Script_exec.O_failed (Graql_error.Exec (_, msg))) :: _ ->
          check "names the operation" true (contains ~needle:"ingest" msg)
      | _ -> Alcotest.fail "expected failed ingest outcome"));
  (* The DDL before the failing ingest took effect; the session recovers
     on the next script. *)
  check "table exists, empty" true
    (Table.nrows (Db.find_table_exn (Session.db s) "T") = 0);
  match Session.run_script ~loader s "ingest table T t.csv" with
  | [ (_, Script_exec.O_message _) ] ->
      check_int "recovered" 3 (Table.nrows (Db.find_table_exn (Session.db s) "T"))
  | _ -> Alcotest.fail "expected ingest message"

let test_parallel_script_failure_propagates () =
  let pool = Pool.create ~domains:2 () in
  let s = Session.create ~pool () in
  ignore (Session.run_script ~loader s mini_schema);
  (* Two independent statements; one dies at runtime (use an unbound
     parameter). Wave execution must surface the error as that
     statement's outcome — and still run its sibling. *)
  let results =
    Session.run_script ~parallel:true s
      {|select id from table T where n > 0 into table OK1
        select id from table T where n = %Unbound% into table BAD|}
  in
  let failed =
    List.filter_map
      (function
        | _, Script_exec.O_failed (Graql_error.Exec (_, msg)) -> Some msg
        | _ -> None)
      results
  in
  check "unbound param surfaced" true
    (failed = [ "unbound parameter %Unbound%" ]);
  check "sibling statement still ran" true
    (Db.find_table (Session.db s) "OK1" <> None);
  Pool.shutdown pool

let test_corrupt_ir_rejected_by_backend () =
  let s = Session.create () in
  ignore (Session.run_script ~loader s mini_schema);
  let blob =
    Graql_ir.Codec.encode_script
      (Graql_lang.Parser.parse_script "select id from table T")
  in
  Bytes.set blob (Bytes.length blob - 1) '\xff';
  match Session.run_ir s blob with
  | _ -> Alcotest.fail "expected corrupt IR"
  | exception Graql_error.Error (Graql_error.Io _) -> ()

(* ------------------------------------------------------------------ *)
(* Fault injection and recovery                                        *)

let render_outcomes results =
  String.concat "\n"
    (List.map
       (fun ((_ : Graql_lang.Ast.stmt), o) ->
         match o with
         | Script_exec.O_table t -> Table.to_display_string t
         | Script_exec.O_subgraph sg -> Graql_graph.Subgraph.summary sg
         | Script_exec.O_message m -> m
         | Script_exec.O_failed e -> "error: " ^ Graql_error.to_string e)
       results)

(* Run every Berlin query and render all outcomes to one string. *)
let berlin_run ~domains ?faults () =
  let pool = Pool.create ~domains () in
  let s = Session.create ~pool ?faults () in
  (* Pin the plan (possibly to none): the determinism matrix must not
     shift when CI exports GRAQL_FAULT_SEED for the whole suite. *)
  Session.set_faults s faults;
  Pool.set_retry ~backoff_ms:0.0 pool;
  Graql_berlin.Berlin_gen.ingest_all ~scale:1 s;
  let db = Session.db s in
  Db.set_param db "Product1"
    (Value.Str (Graql_berlin.Berlin_reference.most_offered_product ~scale:1 ()));
  Db.set_param db "Country1" (Value.Str "US");
  Db.set_param db "Country2" (Value.Str "DE");
  let out =
    String.concat "\n"
      (List.map
         (fun (name, q) ->
           name ^ "\n" ^ render_outcomes (Session.run_script ~parallel:true s q))
         Graql_berlin.Berlin_queries.all)
  in
  let recovered = Session.recovered_faults s in
  Pool.shutdown pool;
  (out, recovered)

let test_berlin_fault_free_determinism () =
  (* The recovery invariant's baseline: outcomes are byte-identical across
     domain counts even without faults. *)
  let base, _ = berlin_run ~domains:1 () in
  List.iter
    (fun domains ->
      let out, recovered = berlin_run ~domains () in
      check_int "no faults injected" 0 recovered;
      Alcotest.(check string)
        (Printf.sprintf "identical at %d domains" domains)
        base out)
    [ 2; 4 ]

let test_berlin_fail_once_recovers_identically () =
  (* Every parallel chunk of every Berlin query fails its first attempt;
     pool-level retry must absorb all of it without changing a byte. *)
  let base, _ = berlin_run ~domains:1 () in
  List.iter
    (fun domains ->
      let out, recovered =
        berlin_run ~domains ~faults:(Fault.fail_once ()) ()
      in
      Alcotest.(check string)
        (Printf.sprintf "recovered run identical at %d domains" domains)
        base out;
      if domains > 1 then
        check "faults were actually injected and recovered" true
          (recovered > 0))
    [ 1; 2; 4; 8 ]

let test_berlin_seeded_random_faults_deterministic () =
  (* A seeded random plan must strike the same sites on every run: two
     runs at the same domain count agree with each other and with the
     fault-free baseline. *)
  let base, _ = berlin_run ~domains:2 () in
  let a, _ = berlin_run ~domains:2 ~faults:(Fault.random ~seed:7 ()) () in
  let b, _ = berlin_run ~domains:2 ~faults:(Fault.random ~seed:7 ()) () in
  Alcotest.(check string) "recovered = fault-free" base a;
  Alcotest.(check string) "same seed, same run" a b

let big_script_loader _ =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "id,n\n";
  for i = 0 to 4999 do
    Buffer.add_string buf (Printf.sprintf "r%d,%d\n" i (i mod 101))
  done;
  Buffer.contents buf

let big_session ?faults ~domains () =
  let pool = Pool.create ~domains () in
  let s = Session.create ~pool ?faults () in
  Pool.set_retry ~backoff_ms:0.0 pool;
  ignore
    (Session.run_script ~loader:big_script_loader s
       {|create table Big(id varchar(8), n integer)
         ingest table Big big.csv|});
  (pool, s)

let test_dead_statement_isolated () =
  (* A permanently-dead site that only replica-less pool retry can reach:
     the targeted statement reports Exec_fault; its sibling completes. *)
  let faults = Fault.make [ Fault.rule ~label:"stmt0:" ~attempts:(-1) Fail ] in
  let pool, s = big_session ~faults ~domains:2 () in
  let results =
    Session.run_script s
      {|select id from table Big where n < 10 into table A
        select id from table Big where n > 90 into table B|}
  in
  (match results with
  | [ (_, Script_exec.O_failed (Graql_error.Exec_fault { site; attempts })) ; (_, ok) ] ->
      check "site names the statement" true (contains ~needle:"stmt0" site);
      check "attempts exhausted" true (attempts >= 1);
      check "sibling ok" true
        (match ok with Script_exec.O_failed _ -> false | _ -> true)
  | _ -> Alcotest.fail "expected [Exec_fault; ok] outcomes");
  check "failed statement produced nothing" true
    (Db.find_table (Session.db s) "A" = None);
  check "sibling statement landed" true
    (Db.find_table (Session.db s) "B" <> None);
  Pool.shutdown pool

let test_deadline_times_out_stalled_shard () =
  let pool, s = big_session ~domains:1 () in
  (* Every site stalls 50 ms; at 4+ chunks the 80 ms budget must expire
     at a chunk boundary and surface as a per-statement timeout. *)
  Session.set_faults s (Some (Fault.make [ Fault.rule (Fault.Slow 50) ]));
  let results =
    Session.run_script ~deadline_ms:80 s
      "select id from table Big where n < 10 into table C"
  in
  (match results with
  | [ (_, Script_exec.O_failed (Graql_error.Timeout { deadline_ms })) ] ->
      check_int "budget reported" 80 deadline_ms
  | _ -> Alcotest.fail "expected timeout outcome");
  Session.set_faults s None;
  (match
     Session.run_script ~deadline_ms:60_000 s
       "select id from table Big where n < 10 into table C"
   with
  | [ (_, Script_exec.O_message _) ] | [ (_, Script_exec.O_table _) ] -> ()
  | _ -> Alcotest.fail "expected success after faults cleared");
  Pool.shutdown pool

let test_server_audit_cap () =
  let srv = Server.create () in
  Server.add_user srv ~name:"root" ~role:Server.Admin;
  let root = Server.connect srv ~user:"root" in
  for i = 0 to 1099 do
    ignore (Server.run root (Printf.sprintf "set %%P%d%% = %d" i i))
  done;
  let log = Server.audit_log srv in
  check_int "capped at 1000" 1000 (List.length log);
  (* Oldest-first eviction: entries 0..99 are gone; the log now starts at
     statement #100 and still ends at #1099. *)
  check "oldest evicted" true (contains ~needle:"P100%" (snd (List.hd log)));
  check "newest kept" true
    (contains ~needle:"P1099%" (snd (List.nth log 999)));
  (* Counters keep counting past the cap. *)
  check "stats uncapped" true (List.mem ("root", 1100, 0) (Server.user_stats srv))

(* ------------------------------------------------------------------ *)
(* Cluster capacity planning                                           *)

module Cluster = Graql_gems.Cluster

let berlin_db scale =
  let s = Session.create () in
  Graql_berlin.Berlin_gen.ingest_all ~scale s;
  Session.db s

let test_cluster_items () =
  let db = berlin_db 1 in
  let items = Cluster.database_items ~shards_per_table:2 db in
  check "all bytes non-negative" true
    (List.for_all (fun i -> i.Cluster.it_bytes >= 0) items);
  (* 10 tables x 2 shards + 10 vertex views + 9 edge types *)
  check_int "item count" ((10 * 2) + 10 + 9) (List.length items);
  let total l = List.fold_left (fun a i -> a + i.Cluster.it_bytes) 0 l in
  let bigger = Cluster.database_items (berlin_db 4) in
  check "footprint grows with scale" true (total bigger > total items)

let test_cluster_lpt_balance () =
  let db = berlin_db 2 in
  let plan = Cluster.plan ~nodes:4 ~mem_per_node:max_int db in
  check "skew near 1 with many items" true (plan.Cluster.pl_skew < 1.5);
  check_int "loads cover total" plan.Cluster.pl_total_bytes
    (Array.fold_left ( + ) 0 plan.Cluster.pl_node_bytes);
  check "fits in unlimited memory" true plan.Cluster.pl_fits

let test_cluster_capacity_boundary () =
  let db = berlin_db 1 in
  let tight = Cluster.plan ~nodes:2 ~mem_per_node:1024 db in
  check "tiny nodes don't fit" false tight.Cluster.pl_fits;
  let roomy = Cluster.plan ~nodes:2 ~mem_per_node:(1 lsl 30) db in
  check "1GB nodes fit scale 1" true roomy.Cluster.pl_fits;
  check "report mentions verdict" true
    (String.length (Cluster.report tight) > 0)

let test_table_bytes_monotone () =
  let schema =
    Schema.make [ { Schema.name = "s"; dtype = Dtype.Varchar 16 } ]
  in
  let t = Table.create ~name:"m" schema in
  let before = Table.approx_bytes t in
  for i = 0 to 999 do
    Table.append_row t [ Value.Str (string_of_int i) ]
  done;
  check "bytes grow with rows" true (Table.approx_bytes t > before + 8000)

let () =
  Alcotest.run "gems"
    [
      ( "session",
        [
          Alcotest.test_case "happy path" `Quick test_session_happy_path;
          Alcotest.test_case "strict rejection" `Quick test_session_strict_rejection;
          Alcotest.test_case "non-strict mode" `Quick test_session_nonstrict_mode;
          Alcotest.test_case "check is static only" `Quick test_check_does_not_execute;
          Alcotest.test_case "run_ir backend entry" `Quick test_run_ir_directly;
          Alcotest.test_case "catalog listing" `Quick test_catalog_rows;
          Alcotest.test_case "warnings don't block" `Quick
            test_session_warnings_do_not_block;
        ] );
      ( "server",
        [
          Alcotest.test_case "roles enforced" `Quick test_server_roles;
          Alcotest.test_case "accounts and audit" `Quick
            test_server_accounts_and_audit;
          Alcotest.test_case "audit cap eviction" `Quick test_server_audit_cap;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "loader failure mid-script" `Quick
            test_loader_failure_mid_script;
          Alcotest.test_case "parallel failure propagates" `Quick
            test_parallel_script_failure_propagates;
          Alcotest.test_case "corrupt IR rejected" `Quick
            test_corrupt_ir_rejected_by_backend;
        ] );
      ( "fault-recovery",
        [
          Alcotest.test_case "berlin fault-free determinism" `Quick
            test_berlin_fault_free_determinism;
          Alcotest.test_case "berlin fail-once recovers identically" `Quick
            test_berlin_fail_once_recovers_identically;
          Alcotest.test_case "berlin seeded random faults deterministic"
            `Quick test_berlin_seeded_random_faults_deterministic;
          Alcotest.test_case "dead statement isolated" `Quick
            test_dead_statement_isolated;
          Alcotest.test_case "deadline times out stalled shard" `Quick
            test_deadline_times_out_stalled_shard;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "items inventory" `Quick test_cluster_items;
          Alcotest.test_case "LPT balance" `Quick test_cluster_lpt_balance;
          Alcotest.test_case "capacity boundary" `Quick test_cluster_capacity_boundary;
          Alcotest.test_case "table bytes monotone" `Quick test_table_bytes_monotone;
        ] );
    ]
