(* The GraQL command-line client: the simplest of the GEMS "clients"
   (Sec. III). Subcommands: run, check, ir, gen-berlin, berlin, snb, repl.

   Failures exit with the stable per-category codes of
   [Graql.Error.exit_code]: 2 parse, 3 analysis, 4 execution, 5 exhausted
   fault recovery, 6 deadline, 7 permission, 8 I/O. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  doc

let parse_param s =
  match String.index_opt s '=' with
  | Some i ->
      let name = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      let value =
        match int_of_string_opt v with
        | Some i -> Graql.Value.Int i
        | None -> (
            match float_of_string_opt v with
            | Some f -> Graql.Value.Float f
            | None -> (
                match Graql.Date.of_string_opt v with
                | Some d -> Graql.Value.Date d
                | None -> Graql.Value.Str v))
      in
      Ok (name, value)
  | None -> Error (`Msg (Printf.sprintf "bad parameter %S (want name=value)" s))

let param_conv = Arg.conv (parse_param, fun ppf (n, _) -> Format.fprintf ppf "%s" n)

let params_arg =
  Arg.(
    value & opt_all param_conv []
    & info [ "p"; "param" ] ~docv:"NAME=VALUE"
        ~doc:"Bind query parameter %NAME% to VALUE (repeatable).")

let domains_arg =
  Arg.(
    value & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Backend parallelism (number of domains). Default: cores, max 8.")

let seq_arg =
  Arg.(
    value & flag
    & info [ "seq" ] ~doc:"Disable parallel statement scheduling.")

let data_dir_arg =
  (* Plain string, not [Arg.dir]: with --wal a fresh directory is created
     on first use, so it need not exist yet. *)
  Arg.(
    value & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:"Directory ingest file names are resolved against; with --wal, \
              where the durable database lives (created if missing).")

let script_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")

let deadline_arg =
  Arg.(
    value & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Abort backend execution after MS milliseconds; timed-out \
              statements report a timeout error and the process exits 6.")

let fault_seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Inject deterministic transient faults (seeded) into the \
              backend to exercise the recovery layer. Equivalent to \
              setting GRAQL_FAULT_SEED.")

let make_session ?domains ?fault_seed ?(params = []) ?durability () =
  let pool =
    Some (Graql.Domain_pool.create ?domains ())
  in
  let faults = Option.map (fun seed -> Graql.Fault.random ~seed ()) fault_seed in
  (* Slow statements (GRAQL_SLOW_MS / --slow-ms) go to stderr. *)
  Graql.Obs.Slow_log.set_sink
    (Some (fun e -> Printf.eprintf "%s\n%!" (Graql.Obs.Slow_log.to_string e)));
  let session = Graql.create_session ?pool ?faults ?durability () in
  List.iter (fun (n, v) -> Graql.Db.set_param (Graql.Session.db session) n v) params;
  session

(* -- observability flags (run, berlin, repl) ------------------------- *)

let metrics_dump_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-dump" ] ~docv:"FILE"
        ~doc:"After the run, write the metrics registry (counters, gauges, \
              histograms) to FILE in Prometheus text format.")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Arm tracing and write the recorded spans to FILE as \
              Chrome-trace JSON (load in about:tracing or Perfetto).")

let slow_ms_arg =
  Arg.(
    value & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:"Log statements slower than MS milliseconds to stderr, with a \
              per-span time breakdown. Equivalent to GRAQL_SLOW_MS.")

let query_log_arg =
  Arg.(
    value & opt (some string) None
    & info [ "query-log" ] ~docv:"FILE"
        ~doc:"Append one JSON line per executed statement to FILE (query \
              id, user, statement kind, wall ms, rows, outcome, retry \
              count). Equivalent to GRAQL_QUERY_LOG.")

let listen_arg =
  Arg.(
    value & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:"Serve the operational HTTP endpoints (/metrics, /healthz, \
              /readyz, /stats, /slowlog, /traces) on 127.0.0.1:PORT for \
              the duration of the run. PORT 0 picks an ephemeral port; \
              the actual address is printed to stderr.")

let serve_ms_arg =
  Arg.(
    value & opt (some int) None
    & info [ "serve-ms" ] ~docv:"MS"
        ~doc:"With --listen: keep serving the HTTP endpoints for MS \
              milliseconds after the run completes before exiting (so \
              scrapers can collect the final state).")

let setup_obs ?query_log ~trace_out ~slow_ms () =
  (match slow_ms with
  | Some ms -> Graql.Obs.Slow_log.set_threshold_ms (Some ms)
  | None -> ());
  (match query_log with
  | Some path -> Graql.Obs.Query_log.open_file path
  | None -> ());
  if trace_out <> None then Graql.Obs.Trace.arm ()

(* --listen: mount the telemetry endpoints on the session. Started not
   ready; the caller flips readiness once recovery/ingest is done. *)
let start_telemetry listen session =
  match listen with
  | None -> None
  | Some port ->
      let tel = Graql.Telemetry.start ~ready:false ~port session in
      Printf.eprintf "listening on http://127.0.0.1:%d\n%!"
        (Graql.Telemetry.port tel);
      Some tel

let telemetry_ready tel =
  Option.iter (fun t -> Graql.Telemetry.set_ready t true) tel

let finish_telemetry ~serve_ms tel =
  match tel with
  | None -> ()
  | Some t ->
      (match serve_ms with
      | Some ms when ms > 0 ->
          Printf.eprintf "note: serving telemetry for %d ms more\n%!" ms;
          Unix.sleepf (float_of_int ms /. 1000.)
      | _ -> ());
      Graql.Telemetry.stop t

let finish_obs ?(trace_role = "cli") ~trace_out ~metrics_dump () =
  (match trace_out with
  | Some path ->
      Graql.Obs.Trace.write_chrome_json ~role:trace_role path;
      Printf.eprintf "note: wrote %d trace event(s) to %s\n%!"
        (List.length (Graql.Obs.Trace.events ()))
        path
  | None -> ());
  match metrics_dump with
  | Some path ->
      let oc = open_out path in
      output_string oc (Graql.Obs.Metrics.to_prometheus ());
      close_out oc;
      Printf.eprintf "note: wrote metrics to %s\n%!" path
  | None -> ()

(* Durability flags shared by run and repl. [--wal] turns the data
   directory into a durable database: existing state is recovered, new
   mutating statements are write-ahead-logged. [--recover] without
   [--wal] rebuilds the state read-only (nothing new is logged). *)
let wal_arg =
  Arg.(
    value & flag
    & info [ "wal" ]
        ~doc:"Durable mode: recover the database in --data-dir (checkpoint \
              + write-ahead log), then log every mutating statement — \
              fsync'd — before applying it.")

let recover_arg =
  Arg.(
    value & flag
    & info [ "recover" ]
        ~doc:"Recover the database state from --data-dir (latest checkpoint \
              plus WAL tail, truncating a torn tail) before running. \
              Implied by --wal; on its own, nothing new is logged.")

let replicate_arg =
  Arg.(
    value & opt (some int) None
    & info [ "replicate" ] ~docv:"PORT"
        ~doc:"With --wal: stream the write-ahead log to follower \
              processes from 127.0.0.1:PORT (0 picks an ephemeral port; \
              the actual address is printed to stderr). Followers attach \
              with $(b,graql follow HOST:PORT).")

(* --replicate: start the WAL-shipping primary on the session's log.
   Returns the handle so the caller can stop it after any --serve-ms
   grace (followers keep converging until then). *)
let start_replication replicate tel session =
  match replicate with
  | None -> None
  | Some port -> (
      match Graql.Session.wal session with
      | None ->
          prerr_endline "note: --replicate ignored without --wal";
          None
      | Some w ->
          let p = Graql.Repl.start_primary ~port w in
          Printf.eprintf "replicating on 127.0.0.1:%d\n%!"
            (Graql.Repl.primary_port p);
          Option.iter
            (fun t ->
              Graql.Telemetry.set_replication t
                (Some (fun () -> Graql.Repl.status_json p));
              (* /readyz body: report followers lagging past
                 GRAQL_REPL_MAX_LAG (status itself never flips). *)
              Graql.Telemetry.set_replication_health t
                (Some (fun () -> Graql.Repl.readyz_health p)))
            tel;
          Some p)

let durability_of ~wal data_dir =
  if wal then Some (Graql.Session.Wal_dir (Option.value data_dir ~default:"graql-data"))
  else None

let report_recovery session =
  match Graql.Session.last_recovery session with
  | Some r
    when r.Graql.Db_io.rec_checkpoint
         || r.Graql.Db_io.rec_replayed > 0
         || r.Graql.Db_io.rec_truncated > 0 ->
      Printf.eprintf
        "note: recovered%s, replayed %d WAL record(s)%s\n%!"
        (if r.Graql.Db_io.rec_checkpoint then
           Printf.sprintf " checkpoint %d" r.Graql.Db_io.rec_epoch
         else " (no checkpoint)")
        r.Graql.Db_io.rec_replayed
        (if r.Graql.Db_io.rec_truncated > 0 then
           Printf.sprintf ", dropped %d torn byte(s)" r.Graql.Db_io.rec_truncated
         else "")
  | _ -> ()

let recover_without_wal session data_dir =
  match data_dir with
  | Some dir ->
      let r = Graql.Db_io.recover (Graql.Session.db session) ~dir in
      Printf.eprintf "note: recovered%s, replayed %d WAL record(s)\n%!"
        (if r.Graql.Db_io.rec_checkpoint then
           Printf.sprintf " checkpoint %d" r.Graql.Db_io.rec_epoch
         else " (no checkpoint)")
        r.Graql.Db_io.rec_replayed
  | None ->
      Graql.Error.raise_error
        (Graql.Error.Io "--recover needs --data-dir (where the database lives)")

let loader_for data_dir =
  match data_dir with
  | Some d when Sys.file_exists (Filename.concat d Graql.Db_io.manifest_name)
    ->
      (* An exported directory: verify sizes + checksums on every load. *)
      Graql.Db_io.checked_loader ~dir:d
  | Some d -> fun name -> read_file (Filename.concat d name)
  | None -> read_file

(* Process exit code for a script whose pipeline succeeded: the first
   failed statement decides; 0 when everything ran. *)
let outcomes_exit_code results =
  List.fold_left
    (fun code (_, outcome) ->
      match outcome with
      | Graql.O_failed err when code = 0 -> Graql.Error.exit_code err
      | _ -> code)
    0 results

let print_outcomes results =
  List.iter
    (fun (stmt, outcome) ->
      (match stmt with
      | Graql.Ast.Select_graph _ | Graql.Ast.Select_table _ ->
          print_endline (Graql.outcome_to_string outcome)
      | _ -> print_endline (Graql.outcome_to_string outcome));
      print_newline ())
    results

let report_diags diags =
  List.iter
    (fun d -> prerr_endline (Graql.Diag.to_string d))
    diags

(* Run [f]; typed errors print to stderr and become their category's exit
   code, which [Cmd.eval'] passes through. *)
let with_typed_errors f =
  match f () with
  | code -> `Ok code
  | exception Graql.Error.Error e ->
      prerr_endline ("graql: " ^ Graql.Error.to_string e);
      `Ok (Graql.Error.exit_code e)

let dump_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dump" ] ~docv:"DIR"
        ~doc:"After the script runs, export every table as CSV plus a \
              reload script (schema.graql) into DIR.")

let checkpoint_flag_arg =
  Arg.(
    value & flag
    & info [ "checkpoint" ]
        ~doc:"After the script runs, fold the write-ahead log into a fresh \
              checkpoint snapshot (needs --wal).")

let run_cmd =
  let action script params domains seq data_dir dump deadline_ms fault_seed
      wal recover checkpoint replicate metrics_dump trace_out slow_ms
      query_log listen serve_ms =
    with_typed_errors (fun () ->
        setup_obs ?query_log ~trace_out ~slow_ms ();
        let session =
          make_session ?domains ?fault_seed ~params
            ?durability:(durability_of ~wal data_dir) ()
        in
        let tel = start_telemetry listen session in
        report_recovery session;
        if recover && not wal then recover_without_wal session data_dir;
        let primary = start_replication replicate tel session in
        telemetry_ready tel;
        let source = read_file script in
        let results =
          Graql.run ~loader:(loader_for data_dir) ~parallel:(not seq)
            ?deadline_ms session source
        in
        report_diags (Graql.Session.last_diagnostics session);
        print_outcomes results;
        let recovered = Graql.Session.recovered_faults session in
        if recovered > 0 then
          Printf.eprintf "note: recovered from %d injected fault(s)\n"
            recovered;
        if checkpoint then
          if Graql.Session.checkpoint session then
            Printf.printf "checkpointed database\n"
          else prerr_endline "note: --checkpoint ignored without --wal";
        (match dump with
        | Some dir ->
            Graql.Db_io.export (Graql.Session.db session) ~dir;
            Printf.printf "exported database to %s/\n" dir
        | None -> ());
        finish_obs ~trace_out ~metrics_dump ();
        (* --serve-ms also extends replication: followers keep draining
           the stream until the grace expires. *)
        (match primary with
        | Some _ when listen = None -> (
            match serve_ms with
            | Some ms when ms > 0 ->
                Printf.eprintf "note: replicating for %d ms more\n%!" ms;
                Unix.sleepf (float_of_int ms /. 1000.)
            | _ -> ())
        | _ -> ());
        finish_telemetry ~serve_ms tel;
        Option.iter Graql.Repl.stop_primary primary;
        Graql.Obs.Query_log.close ();
        Graql.Session.close session;
        outcomes_exit_code results)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a GraQL script")
    Term.(
      ret (const action $ script_arg $ params_arg $ domains_arg $ seq_arg
           $ data_dir_arg $ dump_arg $ deadline_arg $ fault_seed_arg
           $ wal_arg $ recover_arg $ checkpoint_flag_arg $ replicate_arg
           $ metrics_dump_arg $ trace_out_arg $ slow_ms_arg $ query_log_arg
           $ listen_arg $ serve_ms_arg))

let check_cmd =
  let action script params =
    with_typed_errors (fun () ->
        let session = make_session ~params () in
        let source = read_file script in
        let diags = Graql.check session source in
        report_diags diags;
        if Graql.Diag.has_errors diags then
          Graql.Error.exit_code (Graql.Error.Analysis (Graql.Diag.errors diags))
        else begin
          Printf.printf "ok: %d warning(s)\n"
            (List.length (Graql.Diag.warnings diags));
          0
        end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Static query analysis only (catalog metadata, no execution)")
    Term.(ret (const action $ script_arg $ params_arg))

let ir_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write IR bytes to FILE.")
  in
  let decode_arg =
    Arg.(
      value & flag
      & info [ "decode" ]
          ~doc:"Treat SCRIPT as an IR file; decode and pretty-print it.")
  in
  let action script out decode =
    with_typed_errors (fun () ->
        if decode then begin
          let blob = Bytes.of_string (read_file script) in
          match Graql.Ir.decode_script blob with
          | ast ->
              print_endline (Graql.Pretty.script_to_string ast);
              0
          | exception Graql_ir.Wire.Corrupt msg ->
              Graql.Error.raise_error (Graql.Error.Io ("corrupt IR: " ^ msg))
        end
        else
          match Graql.Parser.parse_script (read_file script) with
          | ast -> (
              let blob = Graql.Ir.encode_script ast in
              match out with
              | Some path ->
                  let oc = open_out_bin path in
                  output_bytes oc blob;
                  close_out oc;
                  Printf.printf "wrote %d bytes to %s\n" (Bytes.length blob)
                    path;
                  0
              | None ->
                  Printf.printf "%d statements, %d IR bytes\n"
                    (List.length ast) (Bytes.length blob);
                  0)
          | exception Graql.Loc.Syntax_error (loc, msg) ->
              Graql.Error.raise_error (Graql.Error.Parse (loc, msg)))
  in
  Cmd.v
    (Cmd.info "ir" ~doc:"Compile a script to the binary IR (or decode one)")
    Term.(ret (const action $ script_arg $ out_arg $ decode_arg))

let scale_arg =
  Arg.(
    value & opt int 1
    & info [ "scale" ] ~docv:"N" ~doc:"Dataset scale factor (1 = 100 products).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let gen_berlin_cmd =
  let out_arg =
    Arg.(
      value & opt string "berlin-data"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let action scale seed out =
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let files = Graql.Berlin.Gen.csv_files ~seed ~scale () in
    List.iter
      (fun (name, doc) ->
        let oc = open_out_bin (Filename.concat out name) in
        output_string oc doc;
        close_out oc)
      files;
    let ddl =
      Graql.Berlin.Schema_ddl.full_ddl ^ "\n"
      ^ Graql.Berlin.Schema_ddl.ingest_script Graql.Berlin.Gen.table_files
    in
    let oc = open_out (Filename.concat out "berlin.graql") in
    output_string oc ddl;
    output_char oc (Char.chr 10);
    close_out oc;
    Printf.printf "wrote %d CSV files + berlin.graql to %s/\n"
      (List.length files) out;
    `Ok 0
  in
  Cmd.v
    (Cmd.info "gen-berlin"
       ~doc:"Generate a Berlin (BSBM-style) dataset and its GraQL DDL")
    Term.(ret (const action $ scale_arg $ seed_arg $ out_arg))

let berlin_cmd =
  let query_arg =
    Arg.(
      value & opt string "q2"
      & info [ "query" ] ~docv:"NAME"
          ~doc:"One of: q1, q2, fig9_type_matching, fig10_regex, \
                fig11_subgraph_capture, fig12_seeded, fig13_into_table, \
                eq12_structural, all.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Also print the catalog and per-edge-type degree statistics.")
  in
  let action scale seed query domains params stats deadline_ms fault_seed
      metrics_dump trace_out slow_ms query_log listen serve_ms =
    with_typed_errors @@ fun () ->
    setup_obs ?query_log ~trace_out ~slow_ms ();
    let session = make_session ?domains ?fault_seed ~params () in
    (* Not ready until the Berlin data is ingested: /readyz answers 503
       while the tables load, then 200. *)
    let tel = start_telemetry listen session in
    Graql.Berlin.Gen.ingest_all ~seed ~scale session;
    telemetry_ready tel;
    if stats then begin
      (* Build the views first so the catalog shows real sizes. *)
      let degrees = Graql.Session.degree_report session in
      print_endline
        (Graql_util.Text_table.render ~header:[ "kind"; "name"; "size" ]
           (Graql.Session.catalog_rows session));
      print_endline
        (Graql_util.Text_table.render
           ~header:[ "edge type"; "out-degrees"; "in-degrees" ]
           degrees)
    end;
    let db = Graql.Session.db session in
    (* Sensible defaults for the paper's parameters when not provided. *)
    let default name value =
      if Graql.Db.find_param db name = None then
        Graql.Db.set_param db name value
    in
    default "Product1"
      (Graql.Value.Str (Graql.Berlin.Reference.most_offered_product ~seed ~scale ()));
    default "Country1" (Graql.Value.Str "US");
    default "Country2" (Graql.Value.Str "DE");
    let queries =
      if query = "all" then Graql.Berlin.Queries.all
      else
        match List.assoc_opt query Graql.Berlin.Queries.all with
        | Some q -> [ (query, q) ]
        | None -> []
    in
    if queries = [] then
      Graql.Error.raise_error
        (Graql.Error.Analysis
           [
             {
               Graql.Diag.severity = Graql.Diag.Error;
               loc = Graql.Loc.dummy;
               message = Printf.sprintf "unknown query %S" query;
             };
           ])
    else begin
      let code = ref 0 in
      List.iter
        (fun (name, q) ->
          Printf.printf "--- %s ---\n" name;
          let results = Graql.run ?deadline_ms session q in
          print_outcomes results;
          if !code = 0 then code := outcomes_exit_code results)
        queries;
      finish_obs ~trace_out ~metrics_dump ();
      finish_telemetry ~serve_ms tel;
      Graql.Obs.Query_log.close ();
      !code
    end
  in
  Cmd.v
    (Cmd.info "berlin" ~doc:"Generate, load and query the Berlin scenario")
    Term.(
      ret (const action $ scale_arg $ seed_arg $ query_arg $ domains_arg
           $ params_arg $ stats_arg $ deadline_arg $ fault_seed_arg
           $ metrics_dump_arg $ trace_out_arg $ slow_ms_arg $ query_log_arg
           $ listen_arg $ serve_ms_arg))

let snb_cmd =
  let query_arg =
    Arg.(
      value & opt string "q_knows_plus"
      & info [ "query" ] ~docv:"NAME"
          ~doc:"One of: q_knows_plus, q_knows_star_posts, q_fof_posts, \
                q_knows_knows_plus, q_reply_chain4, q_thread_root, \
                q_moderator_reach, all.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"EXPLAIN ANALYZE each query instead of printing its rows: \
                per-automaton-state estimated vs actual frontier sizes and \
                per-operator wall times.")
  in
  let action scale seed query domains params profile deadline_ms
      fault_seed
      metrics_dump trace_out slow_ms query_log listen serve_ms =
    with_typed_errors @@ fun () ->
    setup_obs ?query_log ~trace_out ~slow_ms ();
    let session = make_session ?domains ?fault_seed ~params () in
    let tel = start_telemetry listen session in
    Graql.Snb.Gen.ingest_all ~seed ~scale session;
    telemetry_ready tel;
    let db = Graql.Session.db session in
    (* Sensible defaults for the workload parameters when not provided:
       the hub person and the deepest reply chain are where the star
       traversals have something to chew on. *)
    let default name value =
      if Graql.Db.find_param db name = None then
        Graql.Db.set_param db name value
    in
    default "Person1"
      (Graql.Value.Str (Graql.Snb.Reference.hub_person ~seed ~scale ()));
    default "Comment1"
      (Graql.Value.Str
         (fst (Graql.Snb.Reference.deepest_comment ~seed ~scale ())));
    default "Forum1" (Graql.Value.Str "fo0");
    let queries =
      if query = "all" then Graql.Snb.Queries.all
      else
        match List.assoc_opt query Graql.Snb.Queries.all with
        | Some q -> [ (query, q) ]
        | None -> []
    in
    if queries = [] then
      Graql.Error.raise_error
        (Graql.Error.Analysis
           [
             {
               Graql.Diag.severity = Graql.Diag.Error;
               loc = Graql.Loc.dummy;
               message = Printf.sprintf "unknown query %S" query;
             };
           ])
    else begin
      let code = ref 0 in
      List.iter
        (fun (name, q) ->
          Printf.printf "--- %s ---\n" name;
          if profile then
            List.iter
              (fun report ->
                print_endline (Graql.Profile_exec.render report))
              (Graql.Session.profile session q)
          else begin
            let results = Graql.run ?deadline_ms session q in
            print_outcomes results;
            if !code = 0 then code := outcomes_exit_code results
          end)
        queries;
      finish_obs ~trace_out ~metrics_dump ();
      finish_telemetry ~serve_ms tel;
      Graql.Obs.Query_log.close ();
      !code
    end
  in
  Cmd.v
    (Cmd.info "snb"
       ~doc:"Generate, load and query the SNB deep-traversal scenario")
    Term.(
      ret (const action $ scale_arg $ seed_arg $ query_arg $ domains_arg
           $ params_arg $ profile_arg $ deadline_arg
           $ fault_seed_arg $ metrics_dump_arg $ trace_out_arg $ slow_ms_arg
           $ query_log_arg $ listen_arg $ serve_ms_arg))

(* repl `stats;` / `stats full;`: the metrics registry as text tables.
   The default view hides the scheduling-variant series (sched.*,
   pool.*, WAL latency histograms); `stats full;` shows all. *)
let print_stats ~full session =
  print_string (Graql.Session.stats_tables ~full session)

(* repl `profile <query>;`: EXPLAIN ANALYZE through the session. *)
let run_repl_profile ~loader session source =
  try
    List.iter
      (fun report -> print_endline (Graql.Profile_exec.render report))
      (Graql.Session.profile ~loader session source)
  with
  | Graql.Error.Error (Graql.Error.Analysis diags) -> report_diags diags
  | Graql.Error.Error e -> Printf.eprintf "%s\n%!" (Graql.Error.to_string e)

let strip_profile_prefix source =
  (* The accumulated submission starts with the `profile` keyword;
     return the statement after it, without the trailing ';'. *)
  let t = String.trim source in
  if String.length t >= 8 && String.lowercase_ascii (String.sub t 0 8) = "profile "
  then
    let rest = String.sub t 8 (String.length t - 8) in
    let rest = String.trim rest in
    let rest =
      if rest <> "" && rest.[String.length rest - 1] = ';' then
        String.sub rest 0 (String.length rest - 1)
      else rest
    in
    Some rest
  else None

let repl_cmd =
  let action domains params data_dir wal slow_ms query_log listen =
    with_typed_errors @@ fun () ->
    setup_obs ?query_log ~trace_out:None ~slow_ms ();
    let session =
      make_session ?domains ~params ?durability:(durability_of ~wal data_dir) ()
    in
    report_recovery session;
    let telemetry = ref None in
    let stop_telemetry () =
      match !telemetry with
      | Some t ->
          Graql.Telemetry.stop t;
          telemetry := None;
          true
      | None -> false
    in
    let serve_port port =
      ignore (stop_telemetry ());
      match Graql.Telemetry.start ~ready:true ~port session with
      | t ->
          telemetry := Some t;
          Printf.printf "listening on http://127.0.0.1:%d\n"
            (Graql.Telemetry.port t)
      | exception Unix.Unix_error (err, _, _) ->
          Printf.printf "cannot listen on port %d: %s\n" port
            (Unix.error_message err)
    in
    Option.iter serve_port listen;
    print_endline
      "GraQL repl — end statements with ';' on their own line, Ctrl-D quits.";
    print_endline
      "Meta-commands: 'profile <query>;' (EXPLAIN ANALYZE), 'stats;' / \
       'stats full;' (metrics), 'serve <port>;' / 'unserve;' (HTTP \
       telemetry).";
    if wal then
      print_endline "Durable session: 'checkpoint;' folds the log into a snapshot.";
    let buf = Buffer.create 256 in
    (try
       while true do
         print_string (if Buffer.length buf = 0 then "graql> " else "  ...> ");
         flush stdout;
         let line = input_line stdin in
         let meta tl =
           (* A meta-command only counts at the start of a submission. *)
           if Buffer.length buf > 0 then None
           else
             let t = String.trim tl in
             let t =
               if t <> "" && t.[String.length t - 1] = ';' then
                 String.trim (String.sub t 0 (String.length t - 1))
               else t
             in
             Some t
         in
         let meta_checkpoint = meta line = Some "checkpoint" in
         let meta_stats = meta line = Some "stats" in
         let meta_stats_full = meta line = Some "stats full" in
         let meta_unserve = meta line = Some "unserve" in
         let meta_serve =
           match meta line with
           | Some t
             when String.length t > 6 && String.sub t 0 6 = "serve " ->
               int_of_string_opt (String.trim (String.sub t 6 (String.length t - 6)))
           | _ -> None
         in
         if meta_checkpoint then begin
           if Graql.Session.checkpoint session then
             print_endline "checkpointed database"
           else print_endline "no durability configured (start with --wal)"
         end
         else if meta_stats then print_stats ~full:false session
         else if meta_stats_full then print_stats ~full:true session
         else if meta_unserve then begin
           if stop_telemetry () then print_endline "stopped serving"
           else print_endline "not serving (start with 'serve <port>;')"
         end
         else if meta_serve <> None then
           serve_port (Option.get meta_serve)
         else if String.trim line = ";" || (String.trim line <> "" && String.length (String.trim line) > 0 && (let t = String.trim line in t.[String.length t - 1] = ';')) then begin
           Buffer.add_string buf line;
           let source = Buffer.contents buf in
           Buffer.clear buf;
           match strip_profile_prefix source with
           | Some query ->
               run_repl_profile ~loader:(loader_for data_dir) session query
           | None -> (
               try
                 print_outcomes
                   (Graql.run ~loader:(loader_for data_dir) session source)
               with
               | Graql.Error.Error (Graql.Error.Analysis diags) ->
                   report_diags diags
               | Graql.Error.Error e ->
                   Printf.eprintf "%s\n%!" (Graql.Error.to_string e)
               | Graql.Script_exec.Script_error (loc, msg) ->
                   Printf.eprintf "%s: %s\n%!" (Graql.Loc.to_string loc) msg)
         end
         else begin
           Buffer.add_string buf line;
           Buffer.add_char buf '\n'
         end
       done
     with End_of_file -> print_newline ());
    ignore (stop_telemetry ());
    Graql.Obs.Query_log.close ();
    Graql.Session.close session;
    0
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive GraQL session")
    Term.(
      ret (const action $ domains_arg $ params_arg $ data_dir_arg $ wal_arg
           $ slow_ms_arg $ query_log_arg $ listen_arg))

let parse_host_port target =
  match String.rindex_opt target ':' with
  | Some i -> (
      let h = String.sub target 0 i in
      let p = String.sub target (i + 1) (String.length target - i - 1) in
      match int_of_string_opt p with
      | Some p -> ((if h = "" then "127.0.0.1" else h), p)
      | None ->
          Graql.Error.raise_error
            (Graql.Error.Io
               (Printf.sprintf "bad target %S (want HOST:PORT)" target)))
  | None ->
      Graql.Error.raise_error
        (Graql.Error.Io
           (Printf.sprintf "bad target %S (want HOST:PORT)" target))

let follow_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOST:PORT"
          ~doc:"The primary's replication address, as printed by \
                $(b,graql run --wal --replicate PORT).")
  in
  let max_lag_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-lag" ] ~docv:"N"
          ~doc:"Readiness bound: with --listen, /readyz answers 503 once \
                the follower is more than N records behind the primary. \
                Default: GRAQL_REPL_MAX_LAG, else 1000.")
  in
  let action target data_dir domains max_lag listen serve_ms =
    with_typed_errors @@ fun () ->
    let host, port = parse_host_port target in
    let dir = Option.value data_dir ~default:"graql-data" in
    let pool = Some (Graql.Domain_pool.create ?domains ()) in
    let follower = Graql.Follower.start ?pool ~host ?max_lag ~port ~dir () in
    Printf.eprintf "following %s:%d into %s/\n%!" host port dir;
    let tel =
      match listen with
      | None -> None
      | Some p ->
          let t = Graql.Telemetry.start_follower ~port:p follower in
          Printf.eprintf "listening on http://127.0.0.1:%d\n%!"
            (Graql.Telemetry.port t);
          Some t
    in
    let quit = Atomic.make false in
    let on_signal _ = Atomic.set quit true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        serve_ms
    in
    let expired () =
      match deadline with
      | Some d -> Unix.gettimeofday () >= d
      | None -> false
    in
    while not (Atomic.get quit || expired ()) do
      try Unix.sleepf 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Graql.Follower.stop follower;
    Option.iter Graql.Telemetry.stop tel;
    Printf.eprintf "stopped: %s\n%!" (Graql.Follower.status_json follower);
    0
  in
  Cmd.v
    (Cmd.info "follow"
       ~doc:"Run a read-only replication follower: mirror a --replicate \
             primary's write-ahead log into --data-dir (byte-identical, \
             fsync'd before each ack), apply it continuously, and fold \
             local checkpoints when the primary's log epoch advances. \
             Runs until SIGINT/SIGTERM (or --serve-ms expires); the data \
             directory is then a valid recovery source — promote the \
             follower by starting a primary on it.")
    Term.(
      ret (const action $ target_arg $ data_dir_arg $ domains_arg
           $ max_lag_arg $ listen_arg $ serve_ms_arg))

(* -- graql serve / graql connect: the IR wire server ----------------- *)

let user_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i -> (
        let name = String.sub s 0 i in
        let r = String.sub s (i + 1) (String.length s - i - 1) in
        match String.lowercase_ascii r with
        | "admin" -> Ok (name, Graql.Server.Admin)
        | "analyst" -> Ok (name, Graql.Server.Analyst)
        | _ ->
            Error
              (`Msg (Printf.sprintf "bad role %S (want admin or analyst)" r)))
    | None -> Error (`Msg (Printf.sprintf "bad user %S (want NAME:ROLE)" s))
  in
  Arg.conv (parse, fun ppf (n, _) -> Format.fprintf ppf "%s" n)

let serve_cmd =
  let dc = Graql.Serve.default_config in
  let port_arg =
    Arg.(
      value & opt int 7687
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port for the wire protocol (0 picks an ephemeral \
                port; the actual address is printed to stderr).")
  in
  let users_arg =
    Arg.(
      value & opt_all user_conv []
      & info [ "user" ] ~docv:"NAME:ROLE"
          ~doc:"Register a user account (repeatable; role is admin or \
                analyst). Default: admin:admin and analyst:analyst.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int dc.Graql.Serve.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Statements executing concurrently before new arrivals \
                queue.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int dc.Graql.Serve.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Statements waiting for an execution slot before arrivals \
                are shed with a typed error.")
  in
  let per_user_arg =
    Arg.(
      value & opt int dc.Graql.Serve.per_user_admitted
      & info [ "per-user" ] ~docv:"N"
          ~doc:"Per-user cap on queued plus executing statements.")
  in
  let max_connections_arg =
    Arg.(
      value & opt int dc.Graql.Serve.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent client connections before new ones are \
                refused.")
  in
  let queue_wait_arg =
    Arg.(
      value & opt int dc.Graql.Serve.queue_wait_ms
      & info [ "queue-wait-ms" ] ~docv:"MS"
          ~doc:"Longest a statement waits for an execution slot before \
                it is shed.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float dc.Graql.Serve.idle_timeout_s
      & info [ "idle-timeout-s" ] ~docv:"S"
          ~doc:"Allowed silence between statements before the connection \
                is closed.")
  in
  let read_timeout_arg =
    Arg.(
      value & opt float dc.Graql.Serve.read_timeout_s
      & info [ "read-timeout-s" ] ~docv:"S"
          ~doc:"A started frame must arrive whole within this bound \
                (reaps byte-dribbling clients).")
  in
  let action port users data_dir wal max_inflight max_queue per_user
      max_connections queue_wait_ms default_deadline_ms idle_timeout_s
      read_timeout_s slow_ms query_log listen replicate =
    with_typed_errors @@ fun () ->
    setup_obs ?query_log ~trace_out:None ~slow_ms ();
    (* Pool-less on purpose: statements already run concurrently, one
       connection domain each, under the Db reader-writer lock. *)
    let server =
      Graql.Server.create ?durability:(durability_of ~wal data_dir) ()
    in
    let session = Graql.Server.session server in
    report_recovery session;
    let users =
      if users = [] then
        [ ("admin", Graql.Server.Admin); ("analyst", Graql.Server.Analyst) ]
      else users
    in
    List.iter
      (fun (name, role) -> Graql.Server.add_user server ~name ~role)
      users;
    let tel = start_telemetry listen session in
    let primary = start_replication replicate tel session in
    let config =
      {
        Graql.Serve.default_config with
        Graql.Serve.port;
        max_inflight;
        max_queue;
        per_user_admitted = per_user;
        max_connections;
        queue_wait_ms;
        idle_timeout_s;
        read_timeout_s;
        default_deadline_ms =
          Option.value default_deadline_ms ~default:0;
      }
    in
    let sv = Graql.Serve.start ~config server in
    Printf.eprintf "serving on 127.0.0.1:%d\n%!" (Graql.Serve.port sv);
    telemetry_ready tel;
    (* SIGINT/SIGTERM begin the drain; Serve.wait returns once draining
       and Serve.stop joins every connection with its in-flight result
       delivered — only then is the WAL closed. *)
    let on_signal _ = Graql.Serve.request_shutdown sv in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Graql.Serve.wait sv;
    Printf.eprintf "draining...\n%!";
    Graql.Serve.stop sv;
    Option.iter Graql.Repl.stop_primary primary;
    finish_telemetry ~serve_ms:None tel;
    Graql.Obs.Query_log.close ();
    Graql.Session.close session;
    Printf.eprintf "stopped\n%!";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the database to concurrent network clients: compiled \
             IR statements over TCP (WAL-style framing), per-user \
             authentication, an admission controller that sheds load \
             with typed retryable errors past its in-flight and queue \
             bounds, and read statements running concurrently under the \
             database's reader-writer epoch. SIGINT/SIGTERM drain \
             in-flight statements before the WAL closes. Clients attach \
             with $(b,graql connect HOST:PORT).")
    Term.(
      ret (const action $ port_arg $ users_arg $ data_dir_arg $ wal_arg
           $ max_inflight_arg $ max_queue_arg $ per_user_arg
           $ max_connections_arg $ queue_wait_arg $ deadline_arg
           $ idle_timeout_arg $ read_timeout_arg $ slow_ms_arg
           $ query_log_arg $ listen_arg $ replicate_arg))

let connect_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOST:PORT"
          ~doc:"The server's wire address, as printed by $(b,graql serve).")
  in
  let script_arg =
    Arg.(
      value & pos 1 (some file) None
      & info [] ~docv:"SCRIPT" ~doc:"GraQL script to run remotely.")
  in
  let exec_arg =
    Arg.(
      value & opt (some string) None
      & info [ "e"; "exec" ] ~docv:"SOURCE"
          ~doc:"Run SOURCE instead of a script file.")
  in
  let user_arg =
    Arg.(
      value & opt string "admin"
      & info [ "user" ] ~docv:"NAME" ~doc:"Connect as this user account.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"After running (or alone), ask the server to drain and \
                stop (admin only).")
  in
  let action target script exec user shutdown deadline_ms trace_out =
    with_typed_errors @@ fun () ->
    let host, port = parse_host_port target in
    let source =
      match (exec, script) with
      | Some src, _ -> Some src
      | None, Some path -> Some (read_file path)
      | None, None -> None
    in
    if source = None && not shutdown then
      Graql.Error.raise_error
        (Graql.Error.Io "nothing to do: give a SCRIPT, --exec or --shutdown");
    if trace_out <> None then Graql.Obs.Trace.arm ();
    let cl = Graql.Client.connect ~host ~port ~user () in
    Fun.protect ~finally:(fun () -> Graql.Client.close cl) @@ fun () ->
    let code =
      match source with
      | None -> 0
      | Some src -> (
          let reply =
            Graql.Client.run ?deadline_ms:(Option.map Fun.id deadline_ms) cl
              src
          in
          match reply with
          | Graql.Client.Ok { epoch; wal_records; outcomes } ->
              List.iter
                (fun o ->
                  print_endline o.Graql.Serve.Proto.ro_text;
                  print_newline ())
                outcomes;
              Printf.eprintf "note: epoch %d, %d WAL record(s)\n%!" epoch
                wal_records;
              Graql.Client.reply_exit_code reply
          | Graql.Client.Shed { reason; retry_after_ms } ->
              Printf.eprintf
                "graql: overloaded: %s (retry after %d ms)\n%!" reason
                retry_after_ms;
              Graql.Client.reply_exit_code reply
          | Graql.Client.Failed { msg; _ } ->
              Printf.eprintf "graql: %s\n%!" msg;
              Graql.Client.reply_exit_code reply
          | Graql.Client.Closing { msg } ->
              Printf.eprintf "graql: server closing: %s\n%!" msg;
              Graql.Client.reply_exit_code reply)
    in
    if shutdown then begin
      match Graql.Client.shutdown cl with
      | Graql.Client.Closing { msg } ->
          Printf.eprintf "note: server acknowledged shutdown: %s\n%!" msg
      | Graql.Client.Failed { msg; _ } ->
          Printf.eprintf "graql: shutdown refused: %s\n%!" msg
      | _ -> ()
    end;
    finish_obs ~trace_role:"client" ~trace_out ~metrics_dump:None ();
    code
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Run a script against a $(b,graql serve) server: the script \
             is parsed and compiled to binary IR locally, shipped over \
             the wire, and executed remotely under the connecting user's \
             role. Exit codes mirror $(b,graql run); a shed (overloaded) \
             reply exits 8 after printing the typed reason and \
             retry-after hint. With $(b,--trace-out) each statement \
             carries a fresh 128-bit trace id over the wire, so the \
             client dump can be $(b,graql trace-merge)d with the \
             server's and followers' $(b,/traces) dumps into one \
             stitched Perfetto view.")
    Term.(
      ret (const action $ target_arg $ script_arg $ exec_arg $ user_arg
           $ shutdown_arg $ deadline_arg $ trace_out_arg))

let explain_cmd =
  let action script params domains data_dir =
    with_typed_errors @@ fun () ->
    let session = make_session ?domains ~params () in
    let db = Graql.Session.db session in
    let source = read_file script in
    match Graql.Parser.parse_script source with
    | ast ->
        List.iter
          (fun stmt ->
            match stmt with
            | Graql.Ast.Select_graph { sg_path; _ } ->
                print_endline
                  (Graql.Pretty.stmt_to_string stmt);
                List.iter
                  (fun plan ->
                    print_endline (Graql.Explain.to_string plan);
                    print_newline ())
                  (Graql.Explain.explain_multipath ~db
                     ~params:(fun p -> Graql.Db.find_param db p)
                     sg_path)
            | Graql.Ast.Select_table st ->
                print_endline (Graql.Pretty.stmt_to_string stmt);
                (match
                   Graql.Table_plan.of_select ~db
                     ~params:(fun p -> Graql.Db.find_param db p)
                     st
                 with
                | plan ->
                    print_endline (Graql.Table_plan.to_string plan);
                    print_newline ()
                | exception Graql.Table_plan.Plan_error (loc, msg) ->
                    Printf.printf "%s: %s\n\n" (Graql.Loc.to_string loc) msg);
                (* Still execute: later statements may select from the
                   result state, matching the non-graph branch below. *)
                ignore
                  (Graql.Script_exec.exec_stmt
                     ~loader:(loader_for data_dir) db stmt)
            | _ ->
                (* DDL / ingest / set establish the state plans need. *)
                ignore
                  (Graql.Script_exec.exec_stmt
                     ~loader:(loader_for data_dir) db stmt))
          ast;
        0
    | exception Graql.Loc.Syntax_error (loc, msg) ->
        Graql.Error.raise_error (Graql.Error.Parse (loc, msg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the query plan for each query in a script: direction, \
             seed strategy and cardinality estimates for graph queries; \
             statistics-driven join order, pushdown and cardinality \
             estimates for table selects")
    Term.(ret (const action $ script_arg $ params_arg $ domains_arg $ data_dir_arg))

let cluster_plan_cmd =
  let nodes_arg =
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let mem_arg =
    Arg.(
      value & opt float 1.0
      & info [ "mem-gb" ] ~docv:"GB" ~doc:"DRAM capacity per node, in GB.")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards-per-table" ] ~docv:"K" ~doc:"Row-range shards per table.")
  in
  let action scale seed nodes mem_gb shards =
    with_typed_errors @@ fun () ->
    let session = make_session () in
    Graql.Berlin.Gen.ingest_all ~seed ~scale session;
    let plan =
      Graql.Cluster.plan ~shards_per_table:shards ~nodes
        ~mem_per_node:(int_of_float (mem_gb *. 1e9))
        (Graql.Session.db session)
    in
    print_endline (Graql.Cluster.report plan);
    0
  in
  Cmd.v
    (Cmd.info "cluster-plan"
       ~doc:"Estimate the Berlin database's DRAM footprint and place its \
             shards over a simulated cluster")
    Term.(
      ret (const action $ scale_arg $ seed_arg $ nodes_arg $ mem_arg $ shards_arg))

let trace_merge_cmd =
  let dumps_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"DUMP"
          ~doc:"Chrome-trace JSON dumps to merge — [--trace-out] files \
                and saved [GET /traces] bodies, one per process.")
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the merged dump to FILE instead of stdout.")
  in
  let action dumps output =
    with_typed_errors @@ fun () ->
    let merged = Graql.Obs.Trace.merge_dumps (List.map read_file dumps) in
    (match output with
    | Some path ->
        let oc = open_out path in
        output_string oc merged;
        close_out oc;
        Printf.eprintf "note: merged %d dump(s) into %s\n%!"
          (List.length dumps) path
    | None -> print_string merged);
    0
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:"Splice per-process Chrome-trace dumps (client --trace-out, \
             server and follower /traces) into one JSON array loadable \
             in Perfetto: each process keeps its own pid lane, and spans \
             of one statement share a trace id across lanes.")
    Term.(ret (const action $ dumps_arg $ output_arg))

let exits =
  Cmd.Exit.defaults
  @ [
      Cmd.Exit.info 2 ~doc:"on a parse error.";
      Cmd.Exit.info 3 ~doc:"on static analysis errors.";
      Cmd.Exit.info 4 ~doc:"on a statement execution error.";
      Cmd.Exit.info 5 ~doc:"when fault recovery was exhausted.";
      Cmd.Exit.info 6 ~doc:"when the --deadline-ms budget expired.";
      Cmd.Exit.info 7 ~doc:"on an authorization failure.";
      Cmd.Exit.info 8 ~doc:"on an I/O or data-integrity failure.";
    ]

let main =
  Cmd.group
    (Cmd.info "graql" ~version:"1.0.0" ~exits
       ~doc:"GraQL attributed graph database (GEMS reproduction)")
    [ run_cmd; check_cmd; ir_cmd; gen_berlin_cmd; berlin_cmd; snb_cmd;
      repl_cmd; follow_cmd; serve_cmd; connect_cmd; trace_merge_cmd;
      explain_cmd; cluster_plan_cmd ]

let () = exit (Cmd.eval' main)
