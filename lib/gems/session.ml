module Ast = Graql_lang.Ast
module Diag = Graql_analysis.Diag
module Db = Graql_engine.Db
module Db_io = Graql_engine.Db_io
module Wal = Graql_engine.Wal
module Script_exec = Graql_engine.Script_exec
module Graql_error = Graql_engine.Graql_error
module Cancel = Graql_parallel.Cancel
module Pool = Graql_parallel.Domain_pool
module Metrics = Graql_obs.Metrics
module Trace = Graql_obs.Trace
module Slow_log = Graql_obs.Slow_log
module Slo = Graql_obs.Slo

type durability = Off | Wal_dir of string

type t = {
  db : Db.t;
  strict : bool;
  durability : durability;
  checkpoint_bytes : int;
  mutable wal : Wal.t option;
  mutable last_recovery : Db_io.recovery option;
  mutable diags : Diag.t list;
  mutable ir_bytes : int;
}

let install_faults t = function
  | None -> ()
  | Some plan -> (
      match Db.pool t.db with
      | Some pool -> Pool.set_fault_hook pool (Some (Fault.hook plan))
      | None -> ())

(* Auto-checkpoint threshold: fold the WAL into a snapshot once it
   outgrows this many bytes (checked between scripts, never mid-script).
   Large enough that short-lived sessions never pay for a checkpoint. *)
let default_checkpoint_bytes () =
  match Option.bind (Sys.getenv_opt "GRAQL_CHECKPOINT_BYTES") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 4 * 1024 * 1024

let create ?pool ?(strict = true) ?faults ?(durability = Off)
    ?checkpoint_bytes () =
  let db = Db.create ?pool () in
  Graql_engine.Ddl_exec.install db;
  let t =
    {
      db;
      strict;
      durability;
      checkpoint_bytes =
        (match checkpoint_bytes with
        | Some n -> n
        | None -> default_checkpoint_bytes ());
      wal = None;
      last_recovery = None;
      diags = [];
      ir_bytes = 0;
    }
  in
  (match durability with
  | Off -> ()
  | Wal_dir dir ->
      (* Reopen the database: recover whatever the directory holds (an
         empty or absent one recovers to an empty database), then start
         logging. *)
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let recovery = Db_io.recover db ~dir in
      let w = Wal.open_log ~dir ~epoch:recovery.Db_io.rec_epoch in
      Db.set_wal db (Some w);
      t.wal <- Some w;
      t.last_recovery <- Some recovery);
  (* Explicit plan wins; otherwise CI's GRAQL_FAULT_SEED covers every run. *)
  (match faults with
  | Some _ -> install_faults t faults
  | None -> install_faults t (Fault.of_env ()));
  (* Read GRAQL_SLOW_MS once; setting it also arms tracing so slow-log
     entries carry span summaries. *)
  ignore (Slow_log.threshold_ms ());
  t

let db t = t.db
let wal t = t.wal
let durability t = t.durability
let last_recovery t = t.last_recovery

let m_checkpoints = Metrics.counter "wal.checkpoints"
let h_checkpoint_us = Metrics.histogram "wal.checkpoint_us"

let checkpoint t =
  match t.wal with
  | None -> false
  | Some w ->
      Trace.with_span ~cat:"wal" "wal.checkpoint" (fun () ->
          let t0 = Unix.gettimeofday () in
          Db_io.checkpoint t.db w;
          Metrics.observe h_checkpoint_us
            ((Unix.gettimeofday () -. t0) *. 1e6);
          Metrics.incr m_checkpoints);
      true

let maybe_checkpoint t =
  match t.wal with
  | Some w when Wal.size w >= t.checkpoint_bytes -> ignore (checkpoint t)
  | Some _ | None -> ()

let close t =
  (match t.wal with
  | Some w ->
      Wal.close w;
      Db.set_wal t.db None;
      t.wal <- None
  | None -> ())
let last_diagnostics t = t.diags
let ir_bytes_shipped t = t.ir_bytes

let set_faults t plan =
  match Db.pool t.db with
  | Some pool -> Pool.set_fault_hook pool (Option.map Fault.hook plan)
  | None -> ()

let recovered_faults t =
  match Db.pool t.db with Some pool -> Pool.fault_retries pool | None -> 0

(* Parse and type-check against the catalog; the diagnostics are kept
   for [last_diagnostics]. *)
let parse_checked t source =
  let ast =
    try Graql_lang.Parser.parse_script source
    with Graql_lang.Loc.Syntax_error (loc, msg) ->
      Graql_error.raise_error (Graql_error.Parse (loc, msg))
  in
  let diags =
    Graql_analysis.Typecheck.check_script ~params:[] (Db.meta t.db) ast
  in
  t.diags <- diags;
  (ast, diags)

let check t source = snd (parse_checked t source)

let cancel_of_deadline = function
  | None -> None
  | Some ms -> Some (Cancel.with_deadline_ms ms)

(* [?trace:true] arms the span ring for the duration of one run and
   restores the previous armed state afterwards (so it composes with a
   globally armed trace, e.g. --trace-out or GRAQL_SLOW_MS). *)
let with_tracing trace f =
  match trace with
  | Some true ->
      let was = Trace.is_armed () in
      Trace.arm ();
      Fun.protect ~finally:(fun () -> if not was then Trace.disarm ()) f
  | Some false | None -> f ()

let run_ir_untraced ?loader ?parallel ?deadline_ms t blob =
  let ast =
    try Graql_ir.Codec.decode_script blob
    with Graql_ir.Wire.Corrupt msg ->
      Graql_error.raise_error (Graql_error.Io ("corrupt IR: " ^ msg))
  in
  let cancel = cancel_of_deadline deadline_ms in
  let results = Script_exec.exec_script ?loader ?parallel ?cancel t.db ast in
  (* Checkpoint policy: only between scripts, never mid-statement — the
     WAL is in a clean state here. *)
  maybe_checkpoint t;
  results

let run_ir ?loader ?parallel ?deadline_ms ?trace t blob =
  with_tracing trace (fun () ->
      run_ir_untraced ?loader ?parallel ?deadline_ms t blob)

let checked_ast t source =
  let ast, diags = parse_checked t source in
  if t.strict && Diag.has_errors diags then
    Graql_error.raise_error (Graql_error.Analysis (Diag.errors diags));
  ast

let run_script ?loader ?parallel ?deadline_ms ?trace t source =
  let ast = checked_ast t source in
  (* Front-end -> backend hop: compile to binary IR and decode it on the
     other side, exactly as the paper's architecture moves queries. *)
  let blob = Graql_ir.Codec.encode_script ast in
  t.ir_bytes <- t.ir_bytes + Bytes.length blob;
  run_ir ?loader ?parallel ?deadline_ms ?trace t blob

(* ------------------------------------------------------------------ *)
(* Observability surface                                               *)

let stats (_ : t) =
  Slo.update_gauges ();
  Metrics.snapshot ()

let stats_text (_ : t) =
  Slo.update_gauges ();
  Metrics.to_prometheus ()

(* Scheduling-variant series (they legitimately change with the domain
   count) are noise for the everyday [stats;] reader: hidden by default,
   shown by [stats full;] / [?full:true]. *)
let sched_variant name =
  let has_prefix p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  has_prefix "sched." || has_prefix "pool."
  || List.mem name [ "wal.append_us"; "wal.fsync_us"; "wal.checkpoint_us" ]

let stats_tables ?(full = false) t =
  let sn = stats t in
  let module T = Graql_util.Text_table in
  let keep name = full || not (sched_variant name) in
  let buf = Buffer.create 1024 in
  let counters = List.filter (fun (n, _) -> keep n) sn.Metrics.sn_counters in
  if counters <> [] then
    Buffer.add_string buf
      (T.render
         ~aligns:[| T.Left; T.Right |]
         ~header:[ "counter"; "value" ]
         (List.map (fun (n, v) -> [ n; string_of_int v ]) counters));
  let gauges = List.filter (fun (n, _) -> keep n) sn.Metrics.sn_gauges in
  if gauges <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf
      (T.render
         ~aligns:[| T.Left; T.Right |]
         ~header:[ "gauge"; "value" ]
         (List.map (fun (n, v) -> [ n; Printf.sprintf "%g" v ]) gauges))
  end;
  let hists = List.filter (fun (n, _) -> keep n) sn.Metrics.sn_histograms in
  if hists <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf
      (T.render
         ~aligns:[| T.Left; T.Right; T.Right |]
         ~header:[ "histogram"; "count"; "mean" ]
         (List.map
            (fun (n, h) ->
              [
                n;
                string_of_int h.Metrics.h_count;
                (if h.Metrics.h_count = 0 then "-"
                 else
                   Printf.sprintf "%.1f"
                     (h.Metrics.h_sum /. float_of_int h.Metrics.h_count));
              ])
            hists))
  end;
  let slo = Slo.summary () in
  if slo <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "SLO objective: %s\n"
         (match Slo.objective_ms () with
         | Some ms -> Printf.sprintf "%g ms" ms
         | None -> "unset"));
    Buffer.add_string buf
      (T.render
         ~aligns:[| T.Left; T.Right; T.Right; T.Right; T.Right; T.Right |]
         ~header:[ "class"; "count"; "p50(ms)<="; "p95(ms)<="; "p99(ms)<="; "breaches" ]
         (List.map
            (fun s ->
              [
                s.Slo.sc_class;
                string_of_int s.Slo.sc_count;
                Printf.sprintf "%.3f" s.Slo.sc_p50_ms;
                Printf.sprintf "%.3f" s.Slo.sc_p95_ms;
                Printf.sprintf "%.3f" s.Slo.sc_p99_ms;
                string_of_int s.Slo.sc_breaches;
              ])
            slo))
  end;
  Buffer.contents buf

let profile ?loader t source =
  (* EXPLAIN ANALYZE wants span data for the statement it runs. *)
  with_tracing (Some true) (fun () ->
      Graql_engine.Profile_exec.profile_script ?loader t.db
        (checked_ast t source))

let catalog_rows t =
  let meta = Db.meta t.db in
  List.map
    (fun name ->
      match Graql_analysis.Meta.find meta name with
      | Some (Graql_analysis.Meta.M_table (_, size)) ->
          [ "table"; name; (match size with Some n -> string_of_int n | None -> "?") ]
      | Some (Graql_analysis.Meta.M_vertex vm) ->
          [
            "vertex";
            name;
            (match vm.Graql_analysis.Meta.vm_size with
            | Some n -> string_of_int n
            | None -> "?");
          ]
      | Some (Graql_analysis.Meta.M_edge em) ->
          [
            "edge";
            name;
            (match em.Graql_analysis.Meta.em_size with
            | Some n -> string_of_int n
            | None -> "?");
          ]
      | Some (Graql_analysis.Meta.M_subgraph _) -> [ "subgraph"; name; "-" ]
      | None -> [ "?"; name; "?" ])
    (Graql_analysis.Meta.names meta)

let degree_report t =
  let g = Db.graph t.db in
  List.map
    (fun name ->
      let e = Graql_graph.Graph_store.find_eset_exn g name in
      [
        name;
        Graql_graph.Degree_stats.to_string
          (Graql_graph.Degree_stats.of_csr (Graql_graph.Eset.forward e));
        Graql_graph.Degree_stats.to_string
          (Graql_graph.Degree_stats.of_csr (Graql_graph.Eset.reverse e));
      ])
    (Graql_graph.Graph_store.eset_names g)
