(* The observability subsystem (DESIGN.md §10): metrics registry
   semantics, domain-count invariance of semantic counters, tracing span
   structure and Chrome-trace JSON dumps, EXPLAIN ANALYZE estimator
   accuracy on the Berlin workload, the slow-statement log, and the CLI
   dump flags.

   The registry is process-global, so every test that asserts on counter
   values starts from [Metrics.reset ()]; Alcotest runs tests
   sequentially in this process, so no two tests race on it. *)

module Metrics = Graql_obs.Metrics
module Trace = Graql_obs.Trace
module Profile = Graql_obs.Profile
module Slow_log = Graql_obs.Slow_log
module Slo = Graql_obs.Slo
module Pool = Graql_parallel.Domain_pool
module Session = Graql_gems.Session
module Fault = Graql_gems.Fault
module Db = Graql_engine.Db
module Value = Graql_storage.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- metrics registry ---------- *)

let test_counter_basics () =
  Metrics.reset ();
  let c = Metrics.counter "test.basics" in
  check_int "fresh counter" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  check_int "incr + add" 42 (Metrics.counter_value c);
  let c' = Metrics.counter "test.basics" in
  Metrics.incr c';
  check_int "same name, same cell" 43 (Metrics.counter_value c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 2.5;
  check "gauge holds last value" true (Metrics.gauge_value g = 2.5)

let test_kind_clash_rejected () =
  ignore (Metrics.counter "test.clash");
  check "counter name cannot become a histogram" true
    (try
       ignore (Metrics.histogram "test.clash");
       false
     with Invalid_argument _ -> true)

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  (* Bucket i covers (2^(i-1), 2^i]: 3.0 lands in (2,4], 100.0 in
     (64,128], 0.5 in the ≤1 bucket. *)
  List.iter (Metrics.observe h) [ 0.5; 3.0; 3.5; 100.0 ];
  let sn = Metrics.snapshot () in
  let hs = List.assoc "test.hist" sn.Metrics.sn_histograms in
  check_int "count" 4 hs.Metrics.h_count;
  check "sum" true (abs_float (hs.Metrics.h_sum -. 107.0) < 1e-9);
  let bucket ub =
    match List.assoc_opt ub hs.Metrics.h_buckets with Some n -> n | None -> 0
  in
  check_int "(2,4] holds both 3.0 and 3.5" 2 (bucket 4.0);
  check_int "(64,128] holds 100.0" 1 (bucket 128.0);
  check_int "<=1 holds 0.5" 1 (bucket 1.0)

let test_counters_merge_across_domains () =
  Metrics.reset ();
  let c = Metrics.counter "test.par" in
  let pool = Pool.create ~domains:4 () in
  Pool.parallel_for pool ~lo:0 ~hi:10_000 (fun _ -> Metrics.incr c);
  check_int "10k increments from 4 domains" 10_000 (Metrics.counter_value c);
  Pool.shutdown pool

let test_prometheus_format () =
  Metrics.reset ();
  Metrics.add (Metrics.counter "test.prom") 7;
  Metrics.observe (Metrics.histogram "test.prom_us") 3.0;
  let text = Metrics.to_prometheus () in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check "counter line" true (has "graql_test_prom_total 7");
  check "histogram count line" true (has "graql_test_prom_us_count 1");
  check "cumulative +Inf bucket" true (has "le=\"+Inf\"")

let test_prometheus_escaping () =
  Alcotest.(check string)
    "HELP escapes backslash and newline" "a\\\\b\\nc"
    (Metrics.escape_help "a\\b\nc");
  Alcotest.(check string)
    "label value additionally escapes quotes" "say \\\"hi\\\"\\n\\\\"
    (Metrics.escape_label_value "say \"hi\"\n\\");
  Metrics.reset ();
  ignore
    (Metrics.counter "test.helped"
       ~help:"line one\nline two \\ \"quoted\"");
  let text = Metrics.to_prometheus () in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check "HELP emitted escaped on one line" true
    (has "# HELP graql_test_helped_total line one\\nline two \\\\ \"quoted\"");
  check "build info present" true (has "graql_build_info{version=\"");
  check "ocaml release labelled" true (has "ocaml=\"");
  check "uptime present" true (has "graql_uptime_seconds");
  check "uptime is non-negative" true (Metrics.uptime_seconds () >= 0.0)

(* ---------- domain-count invariance on the Berlin workload ---------- *)

(* Counters outside sched.* describe what the queries computed,
   not how the work was scheduled, so they must not move when the same
   workload runs on 1, 2, 4 or 8 domains (DESIGN.md §10). *)
let semantic_prefixes = [ "script."; "path."; "table."; "wal."; "graph." ]

let semantic_counters sn =
  List.filter
    (fun (name, _) ->
      List.exists
        (fun p ->
          String.length name >= String.length p
          && String.sub name 0 (String.length p) = p)
        semantic_prefixes)
    sn.Metrics.sn_counters

let berlin_semantic_counters ~domains =
  Metrics.reset ();
  let pool = Pool.create ~domains () in
  let s = Session.create ~pool () in
  Session.set_faults s None;
  Graql_berlin.Berlin_gen.ingest_all ~scale:1 s;
  let db = Session.db s in
  Db.set_param db "Product1"
    (Value.Str (Graql_berlin.Berlin_reference.most_offered_product ~scale:1 ()));
  Db.set_param db "Country1" (Value.Str "US");
  Db.set_param db "Country2" (Value.Str "DE");
  List.iter
    (fun (_, q) -> ignore (Session.run_script ~parallel:true s q))
    Graql_berlin.Berlin_queries.all;
  let out = semantic_counters (Metrics.snapshot ()) in
  Pool.shutdown pool;
  out

let test_counters_invariant_across_domains () =
  let base = berlin_semantic_counters ~domains:1 in
  check "baseline counted something" true
    (List.exists (fun (_, v) -> v > 0) base);
  List.iter
    (fun domains ->
      let got = berlin_semantic_counters ~domains in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "semantic counters identical at %d domains" domains)
        base got)
    [ 2; 4; 8 ]

(* ---------- fault / scheduling counters ---------- *)

let test_fault_counters_count_recoveries () =
  Metrics.reset ();
  let pool = Pool.create ~domains:2 () in
  Pool.set_retry ~backoff_ms:0.0 pool;
  let s = Session.create ~pool ~faults:(Fault.fail_once ()) () in
  Session.set_faults s (Some (Fault.fail_once ()));
  Graql_berlin.Berlin_gen.ingest_all ~scale:1 s;
  let db = Session.db s in
  Db.set_param db "Product1" (Value.Str "p0");
  ignore
    (Session.run_script ~parallel:true s Graql_berlin.Berlin_queries.q2);
  let sn = Metrics.snapshot () in
  let counter name = Option.value ~default:0 (Metrics.find_counter sn name) in
  check "pool retries were counted" true
    (counter "sched.retries" = Session.recovered_faults s);
  check "retries happened at all" true (counter "sched.retries" > 0);
  check "tasks were counted" true (counter "sched.tasks" > 0);
  Pool.shutdown pool

(* ---------- tracing ---------- *)

let berlin_session () =
  let s = Session.create () in
  Session.set_faults s None;
  Graql_berlin.Berlin_gen.ingest_all ~scale:1 s;
  let db = Session.db s in
  Db.set_param db "Product1"
    (Value.Str (Graql_berlin.Berlin_reference.most_offered_product ~scale:1 ()));
  Db.set_param db "Country1" (Value.Str "US");
  Db.set_param db "Country2" (Value.Str "DE");
  s

let test_trace_spans_and_parents () =
  Trace.clear ();
  let s = berlin_session () in
  ignore (Session.run_script ~trace:true s Graql_berlin.Berlin_queries.q2);
  check "run_script ~trace:true restored the disarmed state" false
    (Trace.is_armed ());
  let evs = Trace.events () in
  check "events recorded" true (evs <> []);
  let stmt_spans =
    List.filter (fun e -> e.Trace.ev_cat = "script") evs
  in
  check "statement spans present" true (stmt_spans <> []);
  let ids = List.map (fun e -> e.Trace.ev_id) evs in
  check "ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids));
  List.iter
    (fun e ->
      check "parent is 0 or a recorded span" true
        (e.Trace.ev_parent = 0 || List.mem e.Trace.ev_parent ids);
      check "duration non-negative" true (e.Trace.ev_dur_us >= 0.0))
    evs;
  (* path.* spans must hang off a statement span, transitively. *)
  let path_spans = List.filter (fun e -> e.Trace.ev_cat = "path") evs in
  check "path spans present" true (path_spans <> []);
  List.iter
    (fun e -> check "path span has a parent" true (e.Trace.ev_parent <> 0))
    path_spans;
  (* Disarmed: nothing new is recorded. *)
  let n = List.length evs in
  ignore (Session.run_script s Graql_berlin.Berlin_queries.q2);
  check_int "disarmed run recorded nothing" n (List.length (Trace.events ()))

(* A minimal JSON reader — just enough to verify the Chrome-trace dump
   is well-formed without adding a JSON dependency. *)
let json_parse (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then incr pos else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail ()
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then pos := !pos + String.length lit
    else fail ()
  and number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail ()
  and str () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail ()
      | Some '"' ->
          incr pos;
          fin := true
      | Some '\\' ->
          incr pos;
          if !pos >= n then fail () else incr pos
      | Some _ -> incr pos
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let fin = ref false in
      while not !fin do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            fin := true
        | _ -> fail ()
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            fin := true
        | _ -> fail ()
      done
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_chrome_json_valid () =
  Trace.clear ();
  Trace.arm ();
  Trace.with_span ~cat:"test" ~args:[ ("k", "quote\"back\\slash") ] "outer"
    (fun () -> Trace.with_span ~cat:"test" "inner" (fun () -> ()));
  Trace.disarm ();
  let json = Trace.to_chrome_json () in
  check "chrome trace parses as JSON" true (json_parse (String.trim json));
  check "array form" true (String.length json > 0 && (String.trim json).[0] = '[');
  check "complete events" true
    (let has needle =
       let nl = String.length needle and tl = String.length json in
       let rec go i =
         i + nl <= tl && (String.sub json i nl = needle || go (i + 1))
       in
       go 0
     in
     has "\"ph\": \"X\"" || has "\"ph\":\"X\"")

let test_ring_wraparound () =
  Trace.set_capacity 8;
  Trace.arm ();
  for i = 0 to 19 do
    Trace.with_span ~cat:"test" (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Trace.disarm ();
  check_int "ring keeps only the last capacity events" 8
    (List.length (Trace.events ()));
  check_int "overwritten events are counted" 12 (Trace.dropped ());
  Trace.set_capacity 65536

(* ---------- EXPLAIN ANALYZE ---------- *)

let est_bound = 64.0
(* The Explain estimator works from average-degree statistics, so skew
   (hub products with far more reviews than the mean) can put actuals an
   order of magnitude off the estimate. A factor-64 envelope documents
   "right ballpark" while catching sign/unit regressions; the seed
   estimate for a key lookup must be exact. *)

let test_profile_estimates_vs_actuals () =
  let s = berlin_session () in
  let reports = Session.profile s Graql_berlin.Berlin_queries.q2 in
  check_int "q2 profiles both statements" 2 (List.length reports);
  let graph_report = List.hd reports in
  check "graph statement has a profiled path" true
    (graph_report.Graql_engine.Profile_exec.r_paths <> []);
  let plan, rows = List.hd graph_report.Graql_engine.Profile_exec.r_paths in
  check "plan attached" true (plan <> None);
  check_int "seed + two hops" 3 (List.length rows);
  let seed = List.hd rows in
  check "seed estimate is exact for a key lookup" true
    (seed.Graql_engine.Profile_exec.pr_est = Some 1.0
    && seed.Graql_engine.Profile_exec.pr_rows = 1);
  List.iter
    (fun r ->
      match r.Graql_engine.Profile_exec.pr_est with
      | None -> Alcotest.fail "every path step should carry an estimate"
      | Some est ->
          let actual = float_of_int r.Graql_engine.Profile_exec.pr_rows in
          let factor =
            if actual = 0.0 || est <= 0.0 then 1.0
            else if actual > est then actual /. est
            else est /. actual
          in
          check
            (Printf.sprintf "step %S within %.0fx (est %.1f actual %.0f)"
               r.Graql_engine.Profile_exec.pr_label est_bound est actual)
            true (factor <= est_bound))
    rows;
  (* The relational statement reports operator rows instead. *)
  let table_report = List.nth reports 1 in
  check "second statement records operators" true
    (table_report.Graql_engine.Profile_exec.r_ops <> []);
  (* And the rendering carries both columns. *)
  let rendered =
    Graql_engine.Profile_exec.render graph_report
  in
  let has needle =
    let nl = String.length needle and tl = String.length rendered in
    let rec go i =
      i + nl <= tl && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0
  in
  check "render shows estimates" true (has "est. rows");
  check "render shows actuals" true (has "actual")

let test_profile_failed_statement () =
  let s = Session.create ~strict:false () in
  let reports = Session.profile s "ingest table Missing nosuch.csv" in
  check_int "one report" 1 (List.length reports);
  match (List.hd reports).Graql_engine.Profile_exec.r_outcome with
  | Graql_engine.Script_exec.O_failed _ -> ()
  | _ -> Alcotest.fail "expected O_failed outcome"

(* ---------- slow-statement log ---------- *)

let test_slow_log_captures () =
  Slow_log.clear ();
  Slow_log.set_threshold_ms (Some 0.0);
  Fun.protect
    ~finally:(fun () ->
      Slow_log.set_threshold_ms None;
      Trace.disarm ();
      Slow_log.clear ())
    (fun () ->
      let s = berlin_session () in
      Slow_log.clear ();
      ignore (Session.run_script s Graql_berlin.Berlin_queries.q2);
      let entries = Slow_log.entries () in
      check "threshold 0 logs every statement" true
        (List.length entries >= 2);
      let e = List.hd entries in
      check "wall time recorded" true (e.Slow_log.e_ms >= 0.0);
      check "statement text recorded" true (e.Slow_log.e_stmt <> "");
      check "span summary attached" true
        (List.exists (fun e -> e.Slow_log.e_spans <> []) entries);
      check "to_string renders" true
        (String.length (Slow_log.to_string e) > 0))

let test_slow_threshold_parsing () =
  check "plain number accepted" true (Slow_log.parse_threshold "5.5" = Some 5.5);
  check "zero accepted (log everything)" true
    (Slow_log.parse_threshold "0" = Some 0.0);
  check "integer accepted" true (Slow_log.parse_threshold "250" = Some 250.0);
  check "negative clamps to disabled" true
    (Slow_log.parse_threshold "-3" = None);
  check "non-numeric clamps to disabled" true
    (Slow_log.parse_threshold "fast" = None);
  check "empty clamps to disabled" true (Slow_log.parse_threshold "" = None);
  check "infinity clamps to disabled" true
    (Slow_log.parse_threshold "inf" = None);
  check "nan clamps to disabled" true (Slow_log.parse_threshold "nan" = None)

let test_slow_log_json () =
  Slow_log.clear ();
  Slow_log.set_threshold_ms (Some 0.0);
  Fun.protect
    ~finally:(fun () ->
      Slow_log.set_threshold_ms None;
      Trace.disarm ();
      Slow_log.clear ())
    (fun () ->
      Slow_log.note ~stmt:"select \"quoted\"" ~ms:1.5
        ~spans:[ ("path.step", 3, 0.75) ] ();
      match Graql_util.Json.parse (Slow_log.to_json ()) with
      | Ok (Graql_util.Json.Arr [ entry ]) ->
          check "stmt survives JSON round trip" true
            (Option.bind
               (Graql_util.Json.member "stmt" entry)
               Graql_util.Json.to_string_opt
            = Some "select \"quoted\"");
          check "spans serialized" true
            (match Graql_util.Json.member "spans" entry with
            | Some (Graql_util.Json.Arr [ _ ]) -> true
            | _ -> false)
      | Ok _ -> Alcotest.fail "expected a one-entry array"
      | Error msg -> Alcotest.failf "slow log json: %s" msg)

(* ---------- SLO tracking ---------- *)

let test_slo_percentile () =
  Metrics.reset ();
  let h = Metrics.histogram "test.slo_hist" in
  (* 90 fast (≤1), 9 medium ((2,4]), 1 slow ((64,128]): p50 must land in
     the fast bucket, p95 in the medium one, p99... at rank 99 the
     cumulative count reaches 99 in the medium bucket. *)
  for _ = 1 to 90 do Metrics.observe h 1.0 done;
  for _ = 1 to 9 do Metrics.observe h 3.0 done;
  Metrics.observe h 100.0;
  let sn = Metrics.snapshot () in
  let hs = List.assoc "test.slo_hist" sn.Metrics.sn_histograms in
  check "p50 in fast bucket" true (Slo.percentile hs 0.5 = 1.0);
  check "p95 in medium bucket" true (Slo.percentile hs 0.95 = 4.0);
  check "p100 reaches the slow bucket" true (Slo.percentile hs 1.0 = 128.0);
  check "empty histogram yields nan" true
    (Float.is_nan
       (Slo.percentile { hs with Metrics.h_count = 0; h_buckets = [] } 0.5))

let test_slo_summary_and_breaches () =
  Metrics.reset ();
  Slo.set_objective_ms (Some 2.0);
  Fun.protect ~finally:(fun () -> Slo.set_objective_ms None) @@ fun () ->
  (* Latency data lives in script.stmt_us.<class> histograms (µs). *)
  let h = Metrics.histogram "script.stmt_us.select" in
  for _ = 1 to 99 do Metrics.observe h 500.0 done;
  Metrics.observe h 10_000.0;
  Slo.note ~class_:"select" 0.5;
  Slo.note ~class_:"select" 10.0;
  (* breach *)
  match Slo.summary () with
  | [ s ] ->
      Alcotest.(check string) "class name" "select" s.Slo.sc_class;
      check_int "count" 100 s.Slo.sc_count;
      check "p50 ≤ objective bucket" true (s.Slo.sc_p50_ms <= 2.0);
      check "p99 sees the slow tail" true (s.Slo.sc_p99_ms >= 0.512);
      check_int "one breach counted" 1 s.Slo.sc_breaches;
      check_int "global breach counter" 1
        (Metrics.counter_value (Metrics.counter "slo.breaches"));
      Slo.update_gauges ();
      let sn = Metrics.snapshot () in
      check "p50 gauge published" true
        (List.mem_assoc "slo.select.p50_ms" sn.Metrics.sn_gauges);
      check "objective gauge published" true
        (List.assoc_opt "slo.objective_ms" sn.Metrics.sn_gauges = Some 2.0)
  | l -> Alcotest.failf "expected one class, got %d" (List.length l)

(* ---------- overhead (opt-in: timing-sensitive) ---------- *)

let test_traced_overhead_bounded () =
  if Sys.getenv_opt "GRAQL_OBS_OVERHEAD_CHECK" = None then ()
  else begin
    let s = berlin_session () in
    let mix () =
      List.iter
        (fun (_, q) -> ignore (Session.run_script s q))
        Graql_berlin.Berlin_queries.all
    in
    let time f =
      (* Best of 5 after a warmup: robust against scheduler noise. *)
      f ();
      let best = ref infinity in
      for _ = 1 to 5 do
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt
      done;
      !best
    in
    let untraced = time mix in
    Trace.clear ();
    Trace.arm ();
    let traced = time (fun () -> mix ()) in
    Trace.disarm ();
    check
      (Printf.sprintf "traced %.2fms within 1.5x of untraced %.2fms"
         (traced *. 1000.) (untraced *. 1000.))
      true
      (traced <= 1.5 *. untraced +. 0.005)
  end

(* ---------- CLI dump flags ---------- *)

let graql_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "graql_cli.exe")

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "graql_obs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_cli_dump_flags () =
  with_temp_dir @@ fun dir ->
  let metrics = Filename.concat dir "metrics.txt" in
  let trace = Filename.concat dir "trace.json" in
  let null = if Sys.win32 then "NUL" else "/dev/null" in
  let code =
    Sys.command
      (Filename.quote_command graql_bin ~stdout:null ~stderr:null
         [
           "berlin"; "--scale"; "1"; "--query"; "q2"; "--domains"; "2";
           "--metrics-dump"; metrics; "--trace-out"; trace;
         ])
  in
  check_int "berlin run succeeded" 0 code;
  let prom = read_file metrics in
  let has hay needle =
    let nl = String.length needle and tl = String.length hay in
    let rec go i = i + nl <= tl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "metrics dump is prometheus text" true (has prom "graql_");
  check "semantic counters dumped" true (has prom "graql_path_steps_total");
  let json = read_file trace in
  check "trace dump is valid JSON" true (json_parse (String.trim json));
  check "trace dump is an array" true ((String.trim json).[0] = '[');
  check "trace has complete events" true
    (has json "\"ph\": \"X\"" || has json "\"ph\":\"X\"")

(* ---------- profile collector unit behaviour ---------- *)

let test_collector_scoping () =
  check "no ambient collector by default" true (Profile.current () = None);
  let c = Profile.create () in
  Profile.with_collector c (fun () ->
      check "ambient inside" true
        (match Profile.current () with Some c' -> c' == c | None -> false);
      Profile.begin_path c;
      Profile.note_step c ~label:"seed" ~rows:3 ~ms:0.1;
      Profile.note_step c ~label:"hop" ~rows:9 ~ms:0.2;
      Profile.begin_path c;
      Profile.note_step c ~label:"seed2" ~rows:1 ~ms:0.05;
      Profile.note_op c ~label:"join" ~rows:12 ~ms:0.3);
  check "ambient restored" true (Profile.current () = None);
  let paths = Profile.paths c in
  check_int "two paths" 2 (List.length paths);
  check_int "first path has two steps" 2 (List.length (List.hd paths));
  let first = List.hd (List.hd paths) in
  check "steps kept in order" true
    (first.Profile.sa_label = "seed" && first.Profile.sa_rows = 3);
  match Profile.ops c with
  | [ op ] -> check "op recorded" true (op.Profile.sa_label = "join")
  | _ -> Alcotest.fail "expected exactly one op"

(* ---------- distributed tracing, ledger, redaction (DESIGN.md §16) -- *)

module Ledger = Graql_obs.Ledger
module Redact = Graql_obs.Redact
module Query_log = Graql_obs.Query_log
module Http = Graql_obs.Http

let contains hay needle =
  let nl = String.length needle and tl = String.length hay in
  let rec go i = i + nl <= tl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_ids () =
  Trace.clear ();
  Trace.arm ();
  Fun.protect ~finally:(fun () -> Trace.disarm ()) @@ fun () ->
  let t1 = Trace.new_trace_id () in
  let t2 = Trace.new_trace_id () in
  check_int "trace id is 32 chars" 32 (String.length t1);
  String.iter
    (fun c ->
      check "trace id is lowercase hex" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    t1;
  check "trace ids are unique" true (t1 <> t2);
  check "no ambient trace by default" true (Trace.current_trace () = "");
  Trace.with_trace t1 (fun () ->
      check "with_trace sets the ambient id" true (Trace.current_trace () = t1);
      Trace.with_span ~cat:"test" "one" (fun () ->
          Trace.with_span ~cat:"test" "one.child" (fun () -> ())));
  Trace.with_trace t2 (fun () ->
      Trace.with_span ~cat:"test" "two" (fun () -> ()));
  Trace.with_span ~cat:"test" "untraced" (fun () -> ());
  let of1 = Trace.events_of_trace t1 in
  check_int "trace 1 has its two spans" 2 (List.length of1);
  check "all filtered events carry the id" true
    (List.for_all (fun e -> e.Trace.ev_trace = t1) of1);
  (* Remote-context adoption: the receiving side of a traceparent. *)
  Trace.with_context ~trace:t2 ~parent:4242 (fun () ->
      Trace.with_span ~cat:"test" "adopted" (fun () -> ()));
  let adopted =
    List.find
      (fun e -> e.Trace.ev_name = "adopted")
      (Trace.events_of_trace t2)
  in
  check_int "adopted span hangs off the remote parent" 4242
    adopted.Trace.ev_parent;
  (* Filtered per-role dumps merge into one parseable array. *)
  let dump1 = Trace.to_chrome_json ~trace_id:t1 ~role:"server" () in
  check "filtered dump keeps the trace" true (contains dump1 "one.child");
  check "filtered dump drops other traces" false (contains dump1 "\"two\"");
  let merged =
    Trace.merge_dumps
      [ dump1; Trace.to_chrome_json ~trace_id:t2 ~role:"follower" () ]
  in
  check "merged dump parses as JSON" true (json_parse (String.trim merged));
  check "merged dump keeps both role labels" true
    (contains merged "\"server\"" && contains merged "\"follower\"")

let test_trace_drop_metrics () =
  Trace.set_capacity 8;
  Trace.arm ();
  for i = 0 to 19 do
    Trace.with_span ~cat:"test" (Printf.sprintf "d%d" i) (fun () -> ())
  done;
  Trace.disarm ();
  Trace.update_metrics ();
  let prom = Metrics.to_prometheus () in
  check "ring capacity gauge exposed" true
    (contains prom "graql_trace_ring_capacity 8");
  check "dropped counter exposed" true
    (contains prom "graql_trace_dropped_total 12");
  (* The counter is delta-fed: re-exposing without new drops must not
     double-count. *)
  Trace.update_metrics ();
  check "dropped counter is not double-counted" true
    (contains (Metrics.to_prometheus ()) "graql_trace_dropped_total 12");
  Trace.set_capacity 65536

let test_exemplar_exposition () =
  Metrics.reset ();
  let h = Metrics.histogram "test.exemplar_us" in
  let tid = Trace.new_trace_id () in
  Metrics.observe ~exemplar:tid h 100.0;
  Metrics.observe h 3.0 (* untraced: must not displace the exemplar *);
  let prom = Metrics.to_prometheus () in
  check "exemplar tail on a bucket line" true
    (contains prom (Printf.sprintf " # {trace_id=\"%s\"} 100" tid));
  (* At most one exemplar per histogram exposition. *)
  let occurrences =
    let re = "# {trace_id=" in
    let n = ref 0 in
    for i = 0 to String.length prom - String.length re do
      if String.sub prom i (String.length re) = re then incr n
    done;
    !n
  in
  check_int "exactly one exemplar tail" 1 occurrences;
  check "exposition still parses as prometheus text" true
    (contains prom "graql_test_exemplar_us_count 2")

let test_redaction () =
  Redact.set_enabled false;
  Fun.protect ~finally:(fun () -> Redact.set_enabled false) @@ fun () ->
  let stmt = "select name from table T where city = 'Palo Alto'" in
  check "redaction off: verbatim" true (Redact.statement stmt = stmt);
  Redact.set_enabled true;
  check "single-quoted literal elided" true
    (Redact.statement stmt
    = "select name from table T where city = '?'");
  check "double quotes too" true
    (Redact.statement {|set %x% = "secret"|} = {|set %x% = "?"|});
  check "doubled-quote escape stays inside the literal" true
    (Redact.statement "where a = 'it''s' and b = 2"
    = "where a = '?' and b = 2");
  check "unterminated literal elided to the end" true
    (Redact.statement "where a = 'oops" = "where a = '?");
  (* The query log passes statement text through redaction. *)
  let line =
    Query_log.json_of_record
      {
        Query_log.r_id = 7;
        r_ts = 0.0;
        r_user = Some "alice";
        r_trace = "cafe0000cafe0000cafe0000cafe0000";
        r_kind = "select:'secret'";
        r_ms = 1.5;
        r_rows = 3;
        r_outcome = Query_log.Ok;
        r_retries = 0;
        r_error = None;
        r_ledger = None;
      }
  in
  check "query-log line is JSON" true (json_parse line);
  check "query-log line carries the user" true
    (contains line "\"user\": \"alice\"");
  check "query-log line carries the trace id" true
    (contains line "\"trace_id\": \"cafe0000cafe0000cafe0000cafe0000\"");
  check "query-log statement text is redacted" true
    (contains line "select:'?'" && not (contains line "secret"))

let test_parse_query () =
  Alcotest.(check (list (pair string string)))
    "empty" [] (Http.parse_query "");
  Alcotest.(check (list (pair string string)))
    "pairs, percent and plus decoding, bare keys"
    [ ("trace_id", "abc123"); ("q", "a b+c"); ("flag", "") ]
    (Http.parse_query "trace_id=abc123&q=a%20b%2Bc&flag")

let test_ledger_capture () =
  Metrics.reset ();
  check "not capturing by default" false (Ledger.capturing ());
  Ledger.note_scan_bytes 9999 (* ignored: no bracket open *);
  let snap = Ledger.start () in
  check "capturing inside a bracket" true (Ledger.capturing ());
  let rows = Metrics.counter "table.scan_rows" in
  Metrics.add rows 123;
  Ledger.note_scan_bytes 4096;
  let lg = Ledger.finish ~rows_out:7 snap in
  check "bracket closed" false (Ledger.capturing ());
  check_int "scan rows attributed" 123 lg.Ledger.lg_rows_scanned;
  check_int "scan bytes attributed" 4096 lg.Ledger.lg_bytes_scanned;
  check_int "rows out pass through" 7 lg.Ledger.lg_rows_out;
  check "allocation words recorded" true (lg.Ledger.lg_minor_words >= 0.0);
  let js = Ledger.to_json lg in
  check "ledger json parses" true (json_parse js);
  check "ledger json carries rows_scanned" true
    (contains js "\"rows_scanned\":123");
  check "summary mentions the scan" true
    (contains (Ledger.summary lg) "123")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind clash rejected" `Quick
            test_kind_clash_rejected;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "merge across domains" `Quick
            test_counters_merge_across_domains;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_escaping;
        ] );
      ( "slo",
        [
          Alcotest.test_case "percentile from log2 buckets" `Quick
            test_slo_percentile;
          Alcotest.test_case "summary and breaches" `Quick
            test_slo_summary_and_breaches;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "semantic counters invariant across domains"
            `Slow test_counters_invariant_across_domains;
          Alcotest.test_case "fault counters count recoveries" `Slow
            test_fault_counters_count_recoveries;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans and parents" `Quick
            test_trace_spans_and_parents;
          Alcotest.test_case "chrome json valid" `Quick test_chrome_json_valid;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
        ] );
      ( "profile",
        [
          Alcotest.test_case "estimates vs actuals" `Quick
            test_profile_estimates_vs_actuals;
          Alcotest.test_case "failed statement" `Quick
            test_profile_failed_statement;
          Alcotest.test_case "collector scoping" `Quick test_collector_scoping;
        ] );
      ( "slow-log",
        [
          Alcotest.test_case "captures" `Quick test_slow_log_captures;
          Alcotest.test_case "threshold parsing clamps" `Quick
            test_slow_threshold_parsing;
          Alcotest.test_case "json dump" `Quick test_slow_log_json;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "traced within 1.5x (GRAQL_OBS_OVERHEAD_CHECK)"
            `Slow test_traced_overhead_bounded;
        ] );
      ( "cli",
        [ Alcotest.test_case "dump flags" `Slow test_cli_dump_flags ] );
      ( "distributed",
        [
          Alcotest.test_case "trace ids, filtering, merged dumps" `Quick
            test_trace_ids;
          Alcotest.test_case "drop counter and capacity gauge" `Quick
            test_trace_drop_metrics;
          Alcotest.test_case "openmetrics exemplars" `Quick
            test_exemplar_exposition;
          Alcotest.test_case "log redaction" `Quick test_redaction;
          Alcotest.test_case "query-string parsing" `Quick test_parse_query;
          Alcotest.test_case "resource ledger" `Quick test_ledger_capture;
        ] );
    ]
