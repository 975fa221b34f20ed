module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Csv = Graql_storage.Csv
module Subgraph = Graql_graph.Subgraph
module Pool = Graql_parallel.Domain_pool
module Cancel = Graql_parallel.Cancel
module Metrics = Graql_obs.Metrics
module Trace = Graql_obs.Trace
module Slow_log = Graql_obs.Slow_log
module Slo = Graql_obs.Slo
module Query_log = Graql_obs.Query_log
module Ledger = Graql_obs.Ledger

type outcome =
  | O_table of Table.t
  | O_subgraph of Subgraph.t
  | O_message of string
  | O_failed of Graql_error.t

exception Script_error of Loc.t * string

let error loc fmt = Printf.ksprintf (fun msg -> raise (Script_error (loc, msg))) fmt
let norm = String.lowercase_ascii

let default_loader path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  doc

let params_of db name = Db.find_param db name

(* ------------------------------------------------------------------ *)
(* Write-ahead logging (DESIGN.md §9)                                  *)

(* Statements with a persistent effect are logged — fsync'd — before they
   are applied. Ingest is logged separately with its loaded bytes inlined
   (see [exec_ingest]); a select into a named result is logged when its
   result is registered (see [commit]); selects into nothing leave no
   state behind. *)
let stmt_needs_wal = function
  | Ast.Create_table _ | Ast.Create_vertex _ | Ast.Create_edge _
  | Ast.Set_param _ ->
      true
  | Ast.Ingest _ | Ast.Select_graph _ | Ast.Select_table _ -> false

let wal_log db record =
  match Db.wal db with None -> () | Some w -> Wal.append w record

(* ------------------------------------------------------------------ *)
(* Single statements                                                   *)

let exec_ingest ~loader db ~table ~file ~loc =
  let target =
    match Db.find_table db table with
    | Some t -> t
    | None -> error loc "ingest: no such table %S" table
  in
  let doc =
    try loader file
    with Sys_error msg -> error loc "ingest: cannot read %S: %s" file msg
  in
  (* Log the bytes we actually loaded, so replay never depends on the
     source file still existing (or still having the same contents). *)
  wal_log db (Wal.R_ingest { table; file; doc });
  let before = Table.nrows target in
  (* Parse into a staging table first so a malformed file cannot leave the
     target half-ingested: ingest is atomic w.r.t. queries (Sec. II-A2). *)
  let staged =
    try Csv.table_of_csv ~name:table (Table.schema target) doc
    with Failure msg -> error loc "ingest %s: %s" file msg
  in
  Table.reserve target (before + Table.nrows staged);
  Table.iter_rows
    (fun r -> Table.append_row_array target (Table.row staged r))
    staged;
  Db.invalidate_graph db;
  O_message
    (Printf.sprintf "ingested %d rows into %s (now %d rows)"
       (Table.nrows staged) table
       (before + Table.nrows staged))

let mode_of_graph_select (sg : Ast.select_graph) =
  match sg.Ast.sg_into with
  | Ast.Into_subgraph _ ->
      if List.exists (fun t -> t = Ast.T_star) sg.Ast.sg_targets then
        Path_exec.Keep_all
      else
        Path_exec.Keep_minimal
          (List.filter_map
             (function
               | Ast.T_expr (Ast.E_attr (None, n, _), None) -> Some n
               | _ -> None)
             sg.Ast.sg_targets)
  | Ast.Into_table _ | Ast.Into_nothing -> Path_exec.Keep_all

(* A select into a named result returns its capture unregistered; see
   [commit]. *)
let exec_select_graph db (sg : Ast.select_graph) =
  let params = params_of db in
  let mode = mode_of_graph_select sg in
  let res =
    Path_exec.run ~db ~params ~mode
      ~edges_needed:(Explain.edges_needed_of_select sg)
      sg.Ast.sg_path
  in
  match sg.Ast.sg_into with
  | Ast.Into_subgraph name ->
      let sub =
        Results.to_subgraph ~name ~targets:sg.Ast.sg_targets ~loc:sg.Ast.sg_loc
          res
      in
      O_subgraph sub
  | Ast.Into_table name ->
      let table =
        Results.to_table ~name ~targets:sg.Ast.sg_targets ~params
          ~loc:sg.Ast.sg_loc res
      in
      O_table table
  | Ast.Into_nothing ->
      let table =
        Results.to_table ~name:"result" ~targets:sg.Ast.sg_targets ~params
          ~loc:sg.Ast.sg_loc res
      in
      O_table table

let exec_select_table db (st : Ast.select_table) =
  let params = params_of db in
  let name =
    match st.Ast.st_into with Ast.Into_table n -> n | _ -> "result"
  in
  let table = Table_exec.exec ~db ~params ~name st in
  (match st.Ast.st_into with
  | Ast.Into_subgraph _ ->
      error st.Ast.st_loc "a table select cannot produce a subgraph"
  | Ast.Into_table _ | Ast.Into_nothing -> ());
  O_table table

(* Register a select's named result, logging the statement first. The
   catalog and the subgraph list keep registration order, and recovery
   replays the log in order, so a script commits in statement order. *)
let commit db stmt outcome =
  match (stmt, outcome) with
  | Ast.Select_graph { sg_into = Ast.Into_subgraph _; _ }, O_subgraph sub ->
      wal_log db (Wal.R_stmt stmt);
      Db.lock db (fun () -> Db.add_subgraph db sub)
  | ( ( Ast.Select_graph { sg_into = Ast.Into_table _; _ }
      | Ast.Select_table { st_into = Ast.Into_table _; _ } ),
      O_table table ) ->
      wal_log db (Wal.R_stmt stmt);
      Db.lock db (fun () -> Db.register_result_table db table)
  | _ -> ()

let run_stmt ~loader db stmt =
  if stmt_needs_wal stmt then wal_log db (Wal.R_stmt stmt);
  match stmt with
  | Ast.Create_table { ct_name; ct_cols; ct_loc } ->
      (try Ddl_exec.exec_create_table db ~name:ct_name ~cols:ct_cols ~loc:ct_loc
       with Ddl_exec.Ddl_error (l, m) -> error l "%s" m);
      O_message (Printf.sprintf "created table %s" ct_name)
  | Ast.Create_vertex { cv_name; cv_key; cv_from; cv_where; _ } ->
      Ddl_exec.exec_create_vertex db
        {
          Db.vd_name = cv_name;
          vd_key = cv_key;
          vd_from = cv_from;
          vd_where = cv_where;
        };
      O_message (Printf.sprintf "created vertex type %s" cv_name)
  | Ast.Create_edge { ce_name; ce_src; ce_dst; ce_from; ce_where; _ } ->
      Ddl_exec.exec_create_edge db
        {
          Db.ed_name = ce_name;
          ed_src = ce_src;
          ed_dst = ce_dst;
          ed_from = ce_from;
          ed_where = ce_where;
        };
      O_message (Printf.sprintf "created edge type %s" ce_name)
  | Ast.Ingest { ing_table; ing_file; ing_loc } ->
      exec_ingest ~loader db ~table:ing_table ~file:ing_file ~loc:ing_loc
  | Ast.Set_param { sp_name; sp_value; _ } ->
      Db.set_param db sp_name (Compile_expr.value_of_lit sp_value);
      O_message (Printf.sprintf "set %%%s%%" sp_name)
  | Ast.Select_graph sg -> (
      try exec_select_graph db sg with
      | Path_exec.Exec_error (l, m) | Results.Result_error (l, m) ->
          error l "%s" m
      | Ddl_exec.Ddl_error (l, m) -> error l "%s" m)
  | Ast.Select_table st -> (
      try exec_select_table db st
      with Table_exec.Table_error (l, m) -> error l "%s" m)

let exec_stmt ?(loader = default_loader) db stmt =
  let outcome = run_stmt ~loader db stmt in
  commit db stmt outcome;
  outcome

(* ------------------------------------------------------------------ *)
(* Dependence analysis (Sec. III-B1)                                   *)

let graph_entity = "__graph__"

(* The catalog's registration order is the export order, and recovery
   replays the WAL in log order, so completion order must not decide it.
   [create table] registers as it runs, so it writes this entity and is
   ordered against every other catalog registrant. A select into a table
   only reads it: its table is registered by [exec_script] in statement
   order, so such selects may share a wave. *)
let catalog_entity = "__catalog__"

let rec expr_names acc = function
  | Ast.E_attr (Some q, _, _) -> norm q :: acc
  | Ast.E_attr (None, _, _) | Ast.E_lit _ -> acc
  | Ast.E_param (p, _) -> ("%" ^ norm p) :: acc
  | Ast.E_binop (_, a, b, _) -> expr_names (expr_names acc a) b
  | Ast.E_unop (_, a, _) | Ast.E_is_null (a, _, _) -> expr_names acc a
  | Ast.E_call (_, args, _) ->
      List.fold_left
        (fun acc -> function
          | Ast.A_expr e -> expr_names acc e
          | Ast.A_star -> acc)
        acc args

let vstep_names acc (v : Ast.vstep) =
  let acc =
    match v.Ast.v_kind with
    | Ast.V_named n -> norm n :: acc
    | Ast.V_any -> acc
    | Ast.V_seeded (sg, vt) -> norm sg :: norm vt :: acc
  in
  match v.Ast.v_cond with Some c -> expr_names acc c | None -> acc

let estep_names acc (e : Ast.estep) =
  let acc =
    match e.Ast.e_kind with Ast.E_named n -> norm n :: acc | Ast.E_any -> acc
  in
  match e.Ast.e_cond with Some c -> expr_names acc c | None -> acc

let rec multipath_names acc = function
  | Ast.M_path { head; segments } ->
      let acc = vstep_names acc head in
      List.fold_left
        (fun acc -> function
          | Ast.Seg_step (e, v) -> vstep_names (estep_names acc e) v
          | Ast.Seg_regex (body, _, _) ->
              List.fold_left
                (fun acc (e, v) -> vstep_names (estep_names acc e) v)
                acc body)
        acc segments
  | Ast.M_and (a, b) | Ast.M_or (a, b) ->
      multipath_names (multipath_names acc a) b

let into_catalog = function
  | Ast.Into_table _ -> [ catalog_entity ]
  | Ast.Into_subgraph _ | Ast.Into_nothing -> []

let refs stmt =
  match stmt with
  | Ast.Create_table _ -> []
  | Ast.Create_vertex { cv_from; cv_where; _ } ->
      norm cv_from
      :: (match cv_where with Some c -> expr_names [] c | None -> [])
  | Ast.Create_edge { ce_src; ce_dst; ce_from; ce_where; _ } ->
      (norm ce_src.Ast.ve_type :: norm ce_dst.Ast.ve_type
       :: (match ce_from with Some t -> [ norm t ] | None -> []))
      @ (match ce_where with Some c -> expr_names [] c | None -> [])
  | Ast.Ingest { ing_table; _ } -> [ norm ing_table ]
  | Ast.Set_param _ -> []
  | Ast.Select_graph { sg_path; sg_targets; sg_into; _ } ->
      (graph_entity :: into_catalog sg_into)
      @ multipath_names [] sg_path
      @ List.concat_map
          (function
            | Ast.T_star -> []
            | Ast.T_expr (e, _) -> expr_names [] e)
          sg_targets
  | Ast.Select_table st -> (
      let sources =
        match st.Ast.st_from with
        | Ast.From_table (n, _) -> [ norm n ]
        | Ast.From_join (srcs, w) ->
            List.map (fun (n, _) -> norm n) srcs
            @ (match w with Some w -> expr_names [] w | None -> [])
      in
      sources @ into_catalog st.Ast.st_into
      @ (match st.Ast.st_where with Some w -> expr_names [] w | None -> [])
      @ List.concat_map
          (function
            | Ast.T_star -> []
            | Ast.T_expr (e, _) -> expr_names [] e)
          st.Ast.st_targets)

(* [feeds_view name]: some view reads table [name], so replacing it with
   a select's result changes the graph (Db.register_result_table). *)
let defs ~feeds_view stmt =
  match stmt with
  | Ast.Create_vertex { cv_name; _ } -> [ norm cv_name; graph_entity ]
  | Ast.Create_edge { ce_name; _ } -> [ norm ce_name; graph_entity ]
  | Ast.Ingest { ing_table; _ } -> [ norm ing_table; graph_entity ]
  | Ast.Set_param { sp_name; _ } ->
      (* A view's where clause may read the parameter. *)
      [ "%" ^ norm sp_name; graph_entity ]
  | Ast.Create_table { ct_name; _ } -> [ norm ct_name; catalog_entity ]
  | Ast.Select_graph { sg_into = Ast.Into_table n; _ }
  | Ast.Select_table { st_into = Ast.Into_table n; _ }
    when feeds_view n ->
      [ norm n; graph_entity ]
  | Ast.Select_graph _ | Ast.Select_table _ -> (
      match Ast.stmt_defines stmt with Some n -> [ norm n ] | None -> [])

let dependence_edges ~view_reads script =
  let stmts = Array.of_list script in
  let n = Array.length stmts in
  let refs_a = Array.map refs stmts in
  (* Views defined by the script count as well as those defined before
     it; any name their definitions mention is taken as read. *)
  let script_view_reads =
    List.concat_map
      (function
        | (Ast.Create_vertex _ | Ast.Create_edge _) as s -> refs s | _ -> [])
      script
  in
  let feeds_view name =
    view_reads name || List.mem (norm name) script_view_reads
  in
  let defs_a = Array.map (defs ~feeds_view) stmts in
  let intersects a b = List.exists (fun x -> List.mem x b) a in
  let edges = ref [] in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      (* RAW: j reads what i defines. WAW: both define the same name.
         WAR: j redefines what i reads. *)
      if
        intersects defs_a.(i) refs_a.(j)
        || intersects defs_a.(i) defs_a.(j)
        || intersects refs_a.(i) defs_a.(j)
      then edges := (i, j) :: !edges
    done
  done;
  List.rev !edges

(* Per-statement failure capture: a dead statement becomes a typed
   [O_failed] outcome and the rest of the script still executes. Only
   genuinely fatal conditions (OOM, stack overflow) abort the script. *)
let outcome_of_exn = function
  | Script_error (loc, msg) -> O_failed (Graql_error.Exec (loc, msg))
  | e -> (
      match Graql_error.of_exn e with
      | Some err -> O_failed err
      | None -> raise e)

let m_stmts = Metrics.counter "script.statements"
let m_failed = Metrics.counter "script.failed_statements"
let h_stmt_us = Metrics.histogram "script.stmt_us"

(* Statement class = the operation label up to the ':' that carries the
   entity name ("ingest:Offers" -> "ingest"): the granularity at which
   SLO percentiles are tracked. *)
let stmt_class stmt =
  let kind = Ast.stmt_kind stmt in
  match String.index_opt kind ':' with
  | Some i -> String.sub kind 0 i
  | None -> kind

let class_hist class_ = Metrics.histogram ("script.stmt_us." ^ class_)

(* The retry counter lives in the scheduling layer; reading it by name
   here keeps the engine decoupled from the pool's internals while still
   letting the query log attribute recovery work to the statement that
   ran. Attribution is exact for sequential scripts; statements of the
   same parallel wave may swap each other's counts. *)
let c_sched_retries = Metrics.counter "sched.retries"

let rows_of_outcome = function
  | O_table t -> Table.nrows t
  | O_subgraph sg -> Subgraph.total_vertices sg
  | O_message _ | O_failed _ -> 0

(* Group a statement's child spans by name into (name, count, total ms),
   slowest first — the summary attached to a slow-log entry. *)
let span_summary stmt_span_id =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let count, ms =
        Option.value ~default:(0, 0.0)
          (Hashtbl.find_opt tbl ev.Trace.ev_name)
      in
      Hashtbl.replace tbl ev.Trace.ev_name
        (count + 1, ms +. (ev.Trace.ev_dur_us /. 1000.)))
    (Trace.children stmt_span_id);
  List.sort
    (fun (_, _, a) (_, _, b) -> compare b a)
    (Hashtbl.fold (fun name (count, ms) acc -> (name, count, ms) :: acc) tbl [])

(* With [defer], a select's named result is left for the caller to
   [commit]. *)
let exec_stmt_outcome ~loader ?cancel ~defer db ~index stmt =
  (* Every traced statement runs under a trace id: an ambient one when a
     remote caller (serve, replication) propagated a traceparent, a
     fresh root id otherwise — so WAL records, pool spans and log lines
     produced below all stitch to the same id. *)
  let trace =
    if not (Trace.is_armed ()) then Trace.current_trace ()
    else
      match Trace.current_trace () with
      | "" -> Trace.new_trace_id ()
      | t -> t
  in
  Trace.with_trace trace @@ fun () ->
  let sp =
    Trace.begin_span ~cat:"script"
      ~args:[ ("index", string_of_int index) ]
      ("stmt:" ^ Ast.stmt_kind stmt)
  in
  let query_log = Query_log.enabled () in
  let slow_threshold = Slow_log.threshold_ms () in
  (* The resource ledger is delta-based and not free (Gc.quick_stat +
     a dozen counter folds, twice); capture it only when something
     will carry it — a query-log line or a slow-log entry. *)
  let ledger0 =
    if query_log || slow_threshold <> None then Some (Ledger.start ())
    else None
  in
  let retries0 =
    if query_log then Metrics.counter_value c_sched_retries else 0
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match
      (match cancel with Some c -> Cancel.check c | None -> ());
      Pool.with_label
        (Printf.sprintf "stmt%d:%s" index (Ast.stmt_kind stmt))
        (fun () ->
          Trace.with_parent (Trace.span_id sp) (fun () ->
              let o = run_stmt ~loader db stmt in
              if not defer then commit db stmt o;
              o))
    with
    | o -> o
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try outcome_of_exn e
         with e -> Printexc.raise_with_backtrace e bt)
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Trace.end_span sp;
  let ledger =
    Option.map
      (fun s -> Ledger.finish ~rows_out:(rows_of_outcome outcome) s)
      ledger0
  in
  Metrics.incr m_stmts;
  (match outcome with O_failed _ -> Metrics.incr m_failed | _ -> ());
  Metrics.observe ~exemplar:trace h_stmt_us (ms *. 1000.);
  let class_ = stmt_class stmt in
  Metrics.observe ~exemplar:trace (class_hist class_) (ms *. 1000.);
  Slo.note ~class_ ms;
  (match slow_threshold with
  | Some th when ms >= th ->
      Slow_log.note
        ?user:(Query_log.current_user ())
        ~trace ?ledger
        ~stmt:(Graql_lang.Pretty.stmt_to_string stmt)
        ~ms
        ~spans:(span_summary (Trace.span_id sp))
        ()
  | Some _ | None -> ());
  if query_log then begin
    (* Dispatch retries for this very statement happen before its body
       starts, outside the counter bracket — ask the pool for them. *)
    let retries =
      Metrics.counter_value c_sched_retries - retries0
      + Pool.current_task_retries ()
    in
    let q_outcome, error =
      match outcome with
      | O_failed (Graql_error.Timeout _ as e) ->
          (Query_log.Timeout, Some (Graql_error.to_string e))
      | O_failed e -> (Query_log.Failed, Some (Graql_error.to_string e))
      | _ when retries > 0 -> (Query_log.Degraded, None)
      | _ -> (Query_log.Ok, None)
    in
    Query_log.log
      {
        Query_log.r_id = Query_log.next_id ();
        r_ts = t0;
        r_user = Query_log.current_user ();
        r_trace = trace;
        r_kind = Ast.stmt_kind stmt;
        r_ms = ms;
        r_rows = rows_of_outcome outcome;
        r_outcome = q_outcome;
        r_retries = max 0 retries;
        r_error = error;
        r_ledger = ledger;
      }
  end;
  outcome

let exec_script ?(loader = default_loader) ?parallel ?cancel db script =
  let stmts = Array.of_list script in
  let n = Array.length stmts in
  let parallel =
    match parallel with Some p -> p | None -> Db.pool db <> None
  in
  let outcomes = Array.make n None in
  (match Db.pool db with
  | Some pool -> Pool.set_cancel pool cancel
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match Db.pool db with
      | Some pool -> Pool.set_cancel pool None
      | None -> ())
    (fun () ->
      if (not parallel) || n <= 1 || Db.pool db = None then
        Array.iteri
          (fun i stmt ->
            outcomes.(i) <-
              Some
                (exec_stmt_outcome ~loader ?cancel ~defer:false db ~index:i
                   stmt))
          stmts
      else begin
        let pool = Option.get (Db.pool db) in
        let edges = dependence_edges ~view_reads:(Db.view_reads db) script in
        let preds = Array.make n [] in
        List.iter (fun (i, j) -> preds.(j) <- i :: preds.(j)) edges;
        let done_ = Array.make n false in
        let remaining = ref (List.init n Fun.id) in
        while !remaining <> [] do
          let ready, blocked =
            List.partition
              (fun j -> List.for_all (fun i -> done_.(i)) preds.(j))
              !remaining
          in
          if ready = [] then
            failwith "Script_exec: dependence cycle (impossible for i<j edges)";
          (* Wave: run all ready statements concurrently. A statement that
             fails records its typed outcome; its dependents still run (and
             report their own errors if the failure starved them). The pool
             itself can refuse a statement task — ambient cancellation, or
             a dispatch-level injected fault that exhausts its retries —
             in which case the affected statements get the typed error. *)
          (* Build the graph once, before the wave, rather than in every
             statement that finds it invalidated. *)
          if
            List.compare_length_with ready 1 > 0
            && List.exists (fun j -> List.mem graph_entity (refs stmts.(j))) ready
          then (
            try ignore (Db.graph db)
            with e when Graql_error.of_exn e <> None -> ());
          (try
             Trace.with_span ~cat:"script"
               ~args:[ ("ready", string_of_int (List.length ready)) ]
               "wave"
               (fun () ->
                 Pool.run_tasks pool
                   (List.map
                      (fun j () ->
                        outcomes.(j) <-
                          Some
                            (exec_stmt_outcome ~loader ?cancel ~defer:true db
                               ~index:j stmts.(j)))
                      ready))
           with e -> (
             match Graql_error.of_exn e with
             | None -> raise e
             | Some err ->
                 List.iter
                   (fun j ->
                     if outcomes.(j) = None then
                       outcomes.(j) <- Some (O_failed err))
                   ready));
          (* Results register in statement order, not completion order. *)
          List.iter
            (fun j ->
              match outcomes.(j) with
              | Some o -> (
                  try commit db stmts.(j) o
                  with e -> outcomes.(j) <- Some (outcome_of_exn e))
              | None -> ())
            ready;
          List.iter (fun j -> done_.(j) <- true) ready;
          remaining := blocked
        done
      end);
  List.mapi
    (fun i stmt ->
      match outcomes.(i) with
      | Some o -> (stmt, o)
      | None -> (stmt, O_message "skipped"))
    (Array.to_list (Array.map Fun.id stmts))
