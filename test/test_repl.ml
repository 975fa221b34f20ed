(* WAL-shipping replication (DESIGN.md §13): socket framing under
   adversarial I/O, follower convergence, checkpoint folding across the
   wire, lag/readiness behaviour, and a kill-the-primary chaos harness
   that SIGKILLs a real primary process at seeded random points during
   the Berlin ingest, then restarts it or promotes the follower.

   Invariants the chaos rounds enforce, independent of the kill point:
   - the follower's log file is always a byte-prefix of the primary's
     valid (torn-tail-truncated) log — replication never invents bytes;
   - after the primary restarts, the follower converges to exactly the
     state a fresh recovery of the primary's directory produces — no
     acknowledged write is lost;
   - a promoted follower becomes a primary whose state is byte-identical
     to what it had applied, and the dead ex-primary can rejoin it: its
     divergent history (writes acknowledged but never shipped) is
     detected by the handshake prefix-CRC and discarded by a full
     snapshot resync. *)

module Db = Graql_engine.Db
module Db_io = Graql_engine.Db_io
module Wal = Graql_engine.Wal
module Ddl_exec = Graql_engine.Ddl_exec
module Graql_error = Graql_engine.Graql_error
module Session = Graql_gems.Session
module Repl = Graql_gems.Repl
module Follower = Graql_gems.Follower
module Telemetry = Graql_gems.Telemetry
module Metrics = Graql_obs.Metrics
module Berlin_schema = Graql_berlin.Berlin_schema
module Berlin_gen = Graql_berlin.Berlin_gen
module Value = Graql_storage.Value
module Rng = Graql_util.Rng
module Trace = Graql_obs.Trace
module Json = Graql_util.Json

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ---------- filesystem helpers ---------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "graql_repl" "" in
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

let wal0 dir = Filename.concat dir (Wal.file_name ~epoch:0)

(* ---------- state fingerprinting ---------- *)

let digest db =
  Digest.to_hex
    (Digest.string (Db_io.manifest_of_files (Db_io.export_files db)))

let fresh_db () =
  let db = Db.create () in
  Ddl_exec.install db;
  db

(* The state a brand-new process would recover from [dir] — copied
   first, because recovery truncates torn tails in place. *)
let recovered_digest base dir =
  let scratch = Filename.concat base "recover_scratch" in
  if Sys.file_exists scratch then rm_rf scratch;
  copy_dir dir scratch;
  Fun.protect
    ~finally:(fun () -> rm_rf scratch)
    (fun () ->
      let db = fresh_db () in
      ignore (Db_io.recover db ~dir:scratch);
      digest db)

(* ---------- polling ---------- *)

let wait_until ?(timeout_s = 30.0) ?(poll_s = 0.01) msg f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Unix.sleepf poll_s;
      go ()
    end
  in
  go ()

let counter_now name =
  Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) name)

(* ---------- a bare HTTP client (as in test_http) ---------- *)

let find_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let b = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd b 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf b 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let doc = Buffer.contents buf in
      let status = int_of_string (String.trim (String.sub doc 9 3)) in
      let body =
        match find_sub doc "\r\n\r\n" with
        | Some i -> String.sub doc (i + 4) (String.length doc - i - 4)
        | None -> ""
      in
      (status, body))

(* ====================================================================
   Socket framing: partial writes, short reads, torn streams
   ==================================================================== *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
        [ a; b ])
    (fun () -> f a b)

let expect_io label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a typed Io error" label
  | exception Graql_error.Error (Graql_error.Io _) -> ()

let test_frame_dribble () =
  with_socketpair @@ fun a b ->
  (* A writer that trickles one byte at a time, then a ~1 MiB payload
     through [write_frame] (forcing partial writes against the socket
     buffer): the reader must reassemble both frames exactly. *)
  let small = Bytes.of_string "hello, replication" in
  let big =
    Bytes.init 1_000_000 (fun i -> Char.chr ((i * 31 + (i / 7)) land 0xff))
  in
  let writer =
    Domain.spawn (fun () ->
        let framed = Wal.frame small in
        for i = 0 to Bytes.length framed - 1 do
          ignore (Unix.write a framed i 1)
        done;
        Repl.write_frame a big;
        Unix.close a)
  in
  (match Repl.read_frame b with
  | Some p -> check_str "dribbled frame" (Bytes.to_string small) (Bytes.to_string p)
  | None -> Alcotest.fail "dribbled frame: eof");
  (match Repl.read_frame b with
  | Some p ->
      check_bool "1 MiB frame round-trips" true (Bytes.equal big p)
  | None -> Alcotest.fail "big frame: eof");
  (* Writer closed: clean EOF between frames is None, not an error. *)
  check_bool "clean eof is None" true (Repl.read_frame b = None);
  Domain.join writer

let test_frame_mid_eof () =
  with_socketpair @@ fun a b ->
  let framed = Wal.frame (Bytes.of_string "doomed") in
  ignore (Unix.write a framed 0 5);
  Unix.close a;
  expect_io "eof mid-frame" (fun () -> Repl.read_frame b)

let test_frame_bad_crc () =
  with_socketpair @@ fun a b ->
  let framed = Wal.frame (Bytes.of_string "checksummed") in
  Bytes.set framed 8 (Char.chr (Char.code (Bytes.get framed 8) lxor 0xff));
  ignore (Unix.write a framed 0 (Bytes.length framed));
  Unix.close a;
  expect_io "corrupted crc" (fun () -> Repl.read_frame b)

let test_frame_oversize () =
  with_socketpair @@ fun a b ->
  let hdr = Bytes.create 8 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (Repl.max_frame_bytes + 1));
  Bytes.set_int32_le hdr 4 0l;
  ignore (Unix.write a hdr 0 8);
  expect_io "oversized length" (fun () -> Repl.read_frame b)

let test_message_codec () =
  let messages =
    [
      Repl.Hello { epoch = 3; offset = 4096; crc = 0xDEADBEEFl };
      Repl.Hello { epoch = 0; offset = 0; crc = 0l };
      Repl.Wal_chunk
        { epoch = 1; offset = 13; records = 7; data = Bytes.of_string "\x00\xffpayload" };
      Repl.Wal_chunk { epoch = 0; offset = 13; records = 0; data = Bytes.create 0 };
      Repl.Advance { epoch = 2 };
      Repl.Snapshot
        {
          epoch = 5;
          files = [ ("checkpoint-000005/MANIFEST", "m\n"); ("wal-000005.log", "w") ];
        };
      Repl.Ack { epoch = 9; offset = 1 lsl 40 };
    ]
  in
  List.iter
    (fun m ->
      check_bool "codec round-trip" true
        (Repl.decode_message (Repl.encode_message m) = m))
    messages;
  (* And through a real socket. *)
  with_socketpair @@ fun a b ->
  List.iter (Repl.send_message a) messages;
  List.iter
    (fun m -> check_bool "socket round-trip" true (Repl.recv_message b = Some m))
    messages;
  Unix.close a;
  check_bool "socket eof" true (Repl.recv_message b = None);
  expect_io "garbage payload" (fun () ->
      Repl.decode_message (Bytes.of_string "\xff\xff\xff"))

(* ====================================================================
   Torn-tail observability (satellite: wal.torn_tail counter)
   ==================================================================== *)

let test_torn_tail_counter () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  let session =
    Session.create ~durability:(Session.Wal_dir data) ~checkpoint_bytes:max_int
      ()
  in
  ignore (Session.run_script session "set %a% = 1\nset %b% = 2");
  Session.close session;
  let scan = Wal.scan_file (wal0 data) in
  let last = scan.Wal.s_valid_end in
  Wal.truncate_file (wal0 data) (last - 3);
  let before = counter_now "wal.torn_tail" in
  let db = fresh_db () in
  let r = Db_io.recover db ~dir:data in
  check_bool "torn bytes dropped" true (r.Db_io.rec_truncated > 0);
  check_int "one record lost" 1 r.Db_io.rec_replayed;
  check_int "wal.torn_tail counted the truncation" (before + 1)
    (counter_now "wal.torn_tail")

(* ====================================================================
   In-process replication: stream, fold, resync, reconnect
   ==================================================================== *)

let berlin_script =
  Berlin_schema.full_ddl ^ "\n"
  ^ Berlin_schema.ingest_script Berlin_gen.table_files

let converged ~wal f =
  Follower.epoch f = Wal.epoch wal
  && Follower.offset f = Wal.size wal
  && Follower.lag_records f = 0
  && Follower.lag_bytes f = 0

let test_stream_fold_resync_reconnect () =
  with_temp_dir @@ fun base ->
  let pdir = Filename.concat base "primary" in
  let session =
    Session.create ~durability:(Session.Wal_dir pdir) ~checkpoint_bytes:max_int
      ()
  in
  let wal = Option.get (Session.wal session) in
  let p = ref (Repl.start_primary ~port:0 wal) in
  let followers = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Follower.stop !followers;
      Repl.stop_primary !p;
      Session.close session)
  @@ fun () ->
  let port = Repl.primary_port !p in
  let fdir = Filename.concat base "f1" in
  let f1 = Follower.start ~port ~dir:fdir () in
  followers := [ f1 ];
  (* Live stream: the whole Berlin workload, shipped record by record. *)
  ignore
    (Session.run_script ~loader:(Berlin_gen.loader ~scale:1 ()) session
       berlin_script);
  wait_until "berlin to replicate" (fun () -> converged ~wal f1);
  check_str "replica state is byte-identical" (digest (Session.db session))
    (digest (Follower.db f1));
  check_str "log files are byte-identical" (read_file (wal0 pdir))
    (read_file (wal0 fdir));
  check_int "one follower" 1 (Repl.follower_count !p);
  let psize = Wal.size wal in
  wait_until "ack to drain" (fun () -> Repl.min_acked !p = Some (0, psize));
  let status = Repl.status_json !p in
  check_bool "primary status role" true (contains status "\"role\":\"primary\"");
  check_bool "primary status lists the follower" true
    (contains status "\"acked_offset\"");
  (* Checkpoint: the epoch advance ships as a marker and the follower
     folds its own copy — deterministic export, so the checkpoints are
     byte-identical, and the superseded log disappears on both sides. *)
  check_bool "checkpoint succeeds" true (Session.checkpoint session);
  wait_until "epoch to advance on the follower" (fun () ->
      Follower.epoch f1 = 1 && converged ~wal f1);
  let manifest dir =
    read_file
      (Filename.concat dir
         (Filename.concat (Db_io.checkpoint_dir_name ~epoch:1)
            Db_io.manifest_name))
  in
  check_str "checkpoint manifests are byte-identical" (manifest pdir)
    (manifest fdir);
  check_bool "superseded log deleted on the follower" false
    (Sys.file_exists (wal0 fdir));
  ignore (Session.run_script session "set %after_checkpoint% = 42");
  wait_until "post-checkpoint record" (fun () -> converged ~wal f1);
  check_bool "post-checkpoint write visible on the replica" true
    (Db.find_param (Follower.db f1) "after_checkpoint" = Some (Value.Int 42));
  (* Late joiner: empty directory at epoch 1 — must be served a full
     snapshot resync, and still end byte-identical. *)
  let snapshots_before = counter_now "repl.snapshots" in
  let f2 = Follower.start ~port ~dir:(Filename.concat base "f2") () in
  followers := f2 :: !followers;
  wait_until "late joiner to converge" (fun () ->
      Follower.epoch f2 = 1 && converged ~wal f2);
  check_str "late joiner state is byte-identical" (digest (Session.db session))
    (digest (Follower.db f2));
  check_bool "late joiner was snapshot-resynced" true
    (counter_now "repl.snapshots" > snapshots_before);
  check_int "two followers" 2 (Repl.follower_count !p);
  (* Primary restart: stop the replication endpoint, keep writing, bring
     it back on the same port — followers reconnect and catch up from
     their durable offset (the in-epoch, prefix-CRC-verified path). *)
  Repl.stop_primary !p;
  wait_until "followers to notice the outage" (fun () ->
      (not (Follower.connected f1)) && not (Follower.connected f2));
  ignore (Session.run_script session "set %while_down% = 7");
  p := Repl.start_primary ~port wal;
  wait_until "followers to reconnect and catch up" (fun () ->
      converged ~wal f1 && converged ~wal f2
      && Db.find_param (Follower.db f1) "while_down" = Some (Value.Int 7)
      && Db.find_param (Follower.db f2) "while_down" = Some (Value.Int 7));
  check_bool "f1 reconnected" true (Follower.connects f1 >= 2);
  check_str "states converge after the outage" (digest (Session.db session))
    (digest (Follower.db f1))

(* ---------- lag, readiness and the HTTP surface ---------- *)

let test_lag_readiness_endpoints () =
  with_temp_dir @@ fun base ->
  let pdir = Filename.concat base "primary" in
  let session =
    Session.create ~durability:(Session.Wal_dir pdir) ~checkpoint_bytes:max_int
      ()
  in
  let wal = Option.get (Session.wal session) in
  let p = Repl.start_primary ~port:0 wal in
  let f =
    Follower.start ~max_lag:2
      ~port:(Repl.primary_port p)
      ~dir:(Filename.concat base "f")
      ()
  in
  let ftel = Telemetry.start_follower ~port:0 f in
  let ptel = Telemetry.start ~port:0 session in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.stop ptel;
      Telemetry.stop ftel;
      Follower.stop f;
      Repl.stop_primary p;
      Session.close session)
  @@ fun () ->
  ignore (Session.run_script session "set %warmup% = 1");
  wait_until "warmup record" (fun () -> converged ~wal f);
  let st, _ = http_get (Telemetry.port ftel) "/readyz" in
  check_int "caught-up follower is ready" 200 st;
  (* /replication: live on the follower server; 404 on the primary's
     until a provider is installed. *)
  let st, body = http_get (Telemetry.port ftel) "/replication" in
  check_int "follower /replication" 200 st;
  check_bool "follower role in payload" true
    (contains body "\"role\":\"follower\"");
  let st, _ = http_get (Telemetry.port ptel) "/replication" in
  check_int "unconfigured /replication is 404" 404 st;
  Telemetry.set_replication ptel (Some (fun () -> Repl.status_json p));
  let st, body = http_get (Telemetry.port ptel) "/replication" in
  check_int "primary /replication" 200 st;
  check_bool "primary role in payload" true
    (contains body "\"role\":\"primary\"");
  (* Pause application: the mirror keeps acking (no durability gap) but
     state staleness grows past max_lag and readiness flips. *)
  Follower.pause f;
  ignore
    (Session.run_script session
       "set %l1% = 1\nset %l2% = 2\nset %l3% = 3\nset %l4% = 4\nset %l5% = 5");
  wait_until "lag to build up" (fun () ->
      Follower.lag_records f >= 5 && Follower.lag_bytes f = 0);
  check_bool "paused follower is stale" false (Follower.is_ready f);
  let st, body = http_get (Telemetry.port ftel) "/readyz" in
  check_int "lagging follower answers 503" 503 st;
  check_bool "503 body names the lag" true (contains body "lagging");
  let _, body = http_get (Telemetry.port ftel) "/metrics" in
  check_bool "lag gauge exported" true (contains body "graql_repl_lag_records");
  check_bool "applied counter exported" true
    (contains body "graql_repl_applied_records_total");
  (* Resume: buffered records apply in order; readiness returns. *)
  Follower.resume f;
  wait_until "resume to drain the buffer" (fun () ->
      Follower.is_ready f && converged ~wal f);
  let st, _ = http_get (Telemetry.port ftel) "/readyz" in
  check_int "ready again" 200 st;
  check_str "paused writes applied in order" (digest (Session.db session))
    (digest (Follower.db f))

(* ====================================================================
   Chaos: SIGKILL a real primary process at seeded random points
   ==================================================================== *)

let graql_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "graql_cli.exe")

let reserve_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

(* Run the CLI as a real primary: recover [pdir], execute [script]
   (resolved against [pdir]), keep replicating for up to a minute.
   Auto-checkpointing is pushed out of the way so the chaos rounds stay
   in epoch 0 and the log comparisons are byte-for-byte. *)
let spawn_primary ~pdir ~port ~log script =
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env =
    Array.append
      (Array.of_seq
         (Seq.filter
            (fun kv ->
              not (String.length kv >= 22
                   && String.sub kv 0 22 = "GRAQL_CHECKPOINT_BYTES"))
            (Array.to_seq (Unix.environment ()))))
      [| "GRAQL_CHECKPOINT_BYTES=1073741824";
         (* Arm tracing in the primary process: every statement gets a
            trace id, and WAL records ship it to the follower — the
            chaos rounds then assert the ids survive kills/failover. *)
         "GRAQL_TRACE=1" |]
  in
  let pid =
    Unix.create_process_env graql_bin
      [|
        graql_bin; "run";
        Filename.concat pdir script;
        "--data-dir"; pdir;
        "--wal";
        "--replicate"; string_of_int port;
        "--serve-ms"; "60000";
      |]
      env null logfd logfd
  in
  Unix.close null;
  Unix.close logfd;
  pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let can_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> true
      | exception Unix.Unix_error (_, _, _) -> false)

let wal_size_now path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* The acked-prefix invariant: whatever the follower holds is a byte
   prefix of the primary's valid log region — shipping happens only
   after the primary's fsync, so a replica can trail but never invent. *)
let check_prefix_invariant ~pdir ~fdir =
  let pscan = Wal.scan_file (wal0 pdir) in
  let fbytes = if Sys.file_exists (wal0 fdir) then read_file (wal0 fdir) else "" in
  check_bool "follower never ahead of the primary's durable log" true
    (String.length fbytes <= pscan.Wal.s_valid_end);
  if String.length fbytes > 0 then
    check_str "follower log is a byte-prefix of the primary's"
      (String.sub (read_file (wal0 pdir)) 0 (String.length fbytes))
      fbytes

let test_chaos_kill_the_primary () =
  with_temp_dir @@ fun base ->
  (* Learn the clean run's log size so the kill threshold can land at a
     seeded random point in the middle of the ingest. *)
  let clean = Filename.concat base "clean" in
  let s =
    Session.create ~durability:(Session.Wal_dir clean)
      ~checkpoint_bytes:max_int ()
  in
  ignore
    (Session.run_script ~loader:(Berlin_gen.loader ~scale:1 ()) s berlin_script);
  Session.close s;
  let w_total = wal_size_now (wal0 clean) in
  check_bool "clean berlin run produced a log" true
    (w_total > 10 * Wal.header_size);
  let rng = Rng.make 0xC4A05 in
  let port = reserve_port () in
  let log = Filename.concat base "primary.log" in
  let pdir = Filename.concat base "primary" in
  Sys.mkdir pdir 0o700;
  List.iter
    (fun (name, doc) -> write_file (Filename.concat pdir name) doc)
    (Berlin_gen.csv_files ~scale:1 ());
  write_file (Filename.concat pdir "berlin.graql") berlin_script;
  write_file (Filename.concat pdir "again.graql") "set %restarted% = 1\n";
  write_file (Filename.concat pdir "orphan.graql") "set %orphan% = 1\n";
  let fdir = Filename.concat base "follower" in
  (* Trace the whole drill: the primary process runs with GRAQL_TRACE=1
     (statement trace ids ride its WAL records), and arming this
     process's ring makes the follower record [repl.apply] spans under
     those ids — crossing both the wire and the SIGKILL. *)
  Trace.clear ();
  Trace.arm ();
  let f = Follower.start ~port ~dir:fdir () in
  let live_pid = ref None in
  Fun.protect
    ~finally:(fun () ->
      Trace.disarm ();
      Option.iter kill_and_reap !live_pid;
      Follower.stop f)
  @@ fun () ->
  (* -------- round 1: SIGKILL mid-ingest, follower streaming -------- *)
  let threshold = Rng.int_in rng (w_total / 5) (4 * w_total / 5) in
  let pid = spawn_primary ~pdir ~port ~log "berlin.graql" in
  live_pid := Some pid;
  (* Arm the kill only once the follower is actually streaming, so the
     crash hits a live replication session, not an empty retry loop. *)
  wait_until "primary to bind its replication port" (fun () ->
      can_connect port);
  wait_until "follower to connect" (fun () -> Follower.connected f);
  (* [connected] turns true once the hello is sent. The empty follower's
     hello asks for a snapshot, and a snapshot is installed through
     recovery with no [repl.apply] span: wait for the primary's reply to
     land, so the records streamed after it are traced applies. *)
  wait_until "follower to hold the primary's reply" (fun () ->
      Follower.offset f >= Wal.header_size);
  wait_until ~poll_s:0.001
    (Printf.sprintf "log to reach the kill threshold (%d bytes)" threshold)
    (fun () -> wal_size_now (wal0 pdir) >= threshold);
  kill_and_reap pid;
  live_pid := None;
  wait_until "follower to notice the crash" (fun () ->
      not (Follower.connected f));
  check_prefix_invariant ~pdir ~fdir;
  (* -------- round 2: restart on the same port, converge -------- *)
  let pid = spawn_primary ~pdir ~port ~log "again.graql" in
  live_pid := Some pid;
  wait_until "follower to reconnect and replay the restart"
    (fun () ->
      Follower.connected f
      && Follower.lag_records f = 0
      && Follower.lag_bytes f = 0
      && Db.find_param (Follower.db f) "restarted" = Some (Value.Int 1));
  check_bool "at least one reconnect" true (Follower.connects f >= 2);
  (* No acknowledged write lost: the replica's state equals a fresh
     recovery of the primary's own directory, byte for byte. *)
  check_str "replica state = recovered primary state"
    (recovered_digest base pdir)
    (digest (Follower.db f));
  check_str "log files byte-identical after the restart"
    (read_file (wal0 pdir)) (read_file (wal0 fdir));
  kill_and_reap pid;
  live_pid := None;
  (* -------- round 3: diverge the dead primary, promote the follower
     -------- *)
  (* The ex-primary takes one more acknowledged write with nobody
     replicating it: that write is durable in pdir only. *)
  Follower.stop f;
  let size_before = wal_size_now (wal0 pdir) in
  let pid = spawn_primary ~pdir ~port ~log "orphan.graql" in
  live_pid := Some pid;
  wait_until "orphan write to land" (fun () ->
      wal_size_now (wal0 pdir) > size_before);
  kill_and_reap pid;
  live_pid := None;
  (* Promotion = plain recovery of the follower's directory. *)
  let before_promotion = digest (Follower.db f) in
  let promoted =
    Session.create ~durability:(Session.Wal_dir fdir) ~checkpoint_bytes:max_int
      ()
  in
  Fun.protect ~finally:(fun () -> Session.close promoted) @@ fun () ->
  check_str "promotion loses nothing the follower had applied"
    before_promotion
    (digest (Session.db promoted));
  ignore (Session.run_script promoted "set %promoted% = 1");
  let pwal = Option.get (Session.wal promoted) in
  let np = Repl.start_primary ~port:0 pwal in
  Fun.protect ~finally:(fun () -> Repl.stop_primary np) @@ fun () ->
  (* The dead ex-primary rejoins as a follower of its former replica.
     Same epoch, plausible offset — but its history diverged (the orphan
     write), so the handshake prefix-CRC must force a snapshot resync
     rather than splice two different histories. *)
  let snapshots_before = counter_now "repl.snapshots" in
  let f2 = Follower.start ~port:(Repl.primary_port np) ~dir:pdir () in
  Fun.protect ~finally:(fun () -> Follower.stop f2) @@ fun () ->
  wait_until "ex-primary to converge on the new primary" (fun () ->
      converged ~wal:pwal f2
      && Db.find_param (Follower.db f2) "promoted" = Some (Value.Int 1));
  check_bool "divergent history forced a snapshot resync" true
    (counter_now "repl.snapshots" > snapshots_before);
  check_bool "the unreplicated orphan write is gone" true
    (Db.find_param (Follower.db f2) "orphan" = None);
  check_str "old and new primaries converge"
    (digest (Session.db promoted))
    (digest (Follower.db f2));
  check_str "their log files converge too" (read_file (wal0 fdir))
    (read_file (wal0 pdir));
  (* -------- satellite: trace continuity across the kill --------
     Statements the SIGKILLed primary traced were applied here under
     the trace ids its WAL records carried. After the failover, one
     such id must still yield a parseable merged Chrome-trace dump
     whose events all carry that single id. *)
  let traced_applies =
    List.filter
      (fun e -> e.Trace.ev_name = "repl.apply" && e.Trace.ev_trace <> "")
      (Trace.events ())
  in
  if traced_applies = [] then begin
    let evs = Trace.events () in
    let applies =
      List.filter (fun e -> e.Trace.ev_name = "repl.apply") evs
    in
    Alcotest.failf
      "no traced repl.apply: %d events total, %d repl.apply, names: %s"
      (List.length evs) (List.length applies)
      (String.concat ","
         (List.sort_uniq compare (List.map (fun e -> e.Trace.ev_name) evs)))
  end;
  let tid = (List.hd traced_applies).Trace.ev_trace in
  let merged =
    Trace.merge_dumps
      [
        Trace.to_chrome_json ~trace_id:tid ~role:"follower" ();
        Trace.to_chrome_json ~trace_id:tid ~role:"promoted-primary" ();
      ]
  in
  let doc =
    match Json.parse merged with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "merged trace dump unparseable: %s" msg
  in
  let entries = Option.value (Json.to_list doc) ~default:[] in
  check_bool "merged dump has events" true (entries <> []);
  let stamped = ref 0 in
  List.iter
    (fun ev ->
      match
        Option.bind (Json.member "args" ev) (fun a -> Json.member "trace_id" a)
      with
      | Some t ->
          incr stamped;
          check_str "every merged event carries the one trace id" tid
            (Option.value (Json.to_string_opt t) ~default:"")
      | None -> () (* process_name metadata rows carry no trace id *))
    entries;
  check_bool "the merged dump contains the traced spans" true (!stamped > 0)

let () =
  Alcotest.run "repl"
    [
      ( "framing",
        [
          Alcotest.test_case "dribbled writes reassemble" `Quick
            test_frame_dribble;
          Alcotest.test_case "eof mid-frame is typed Io" `Quick
            test_frame_mid_eof;
          Alcotest.test_case "corrupted crc is typed Io" `Quick
            test_frame_bad_crc;
          Alcotest.test_case "oversized length is typed Io" `Quick
            test_frame_oversize;
          Alcotest.test_case "message codec round-trips" `Quick
            test_message_codec;
        ] );
      ( "torn-tail",
        [
          Alcotest.test_case "truncation is counted" `Quick
            test_torn_tail_counter;
        ] );
      ( "replication",
        [
          Alcotest.test_case "stream, fold, resync, reconnect" `Quick
            test_stream_fold_resync_reconnect;
          Alcotest.test_case "lag, readiness, endpoints" `Quick
            test_lag_readiness_endpoints;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill the primary" `Quick
            test_chaos_kill_the_primary;
        ] );
    ]
