(* The wire server (DESIGN.md §14): protocol codec and framing under
   adversarial clients (dribbled bytes, mid-frame disconnects, oversized
   frames, slowloris stalls), the admission controller's typed sheds
   (queue_full / queue_wait / user_quota / connections / draining),
   per-statement deadlines, concurrent reads under the reader-writer
   epoch, and graceful drain.

   The headline drill floods a WAL-backed server past its admission
   limits with real client processes — some byte-dribbling, some
   SIGKILLed mid-statement — and then proves the overload contract:
   every client exits with either success or a typed shed code (no
   hangs), a shed writer left no trace, an accepted writer's effect is
   durable, and a fresh sequential replay of the accepted WAL reproduces
   the served state byte-for-byte. *)

module Db = Graql_engine.Db
module Db_io = Graql_engine.Db_io
module Wal = Graql_engine.Wal
module Ddl_exec = Graql_engine.Ddl_exec
module Graql_error = Graql_engine.Graql_error
module Session = Graql_gems.Session
module Server = Graql_gems.Server
module Serve = Graql_gems.Serve
module Client = Graql_gems.Client
module Repl = Graql_gems.Repl
module Proto = Graql_gems.Serve.Proto
module Metrics = Graql_obs.Metrics
module Value = Graql_storage.Value

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
  let dir = Filename.temp_file "graql_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let write_file path doc =
  let oc = open_out_bin path in
  output_string oc doc;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  doc

let int_csv n =
  let b = Buffer.create (n * 8) in
  Buffer.add_string b "id\n";
  for i = 1 to n do
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* ---------- polling / metrics ---------- *)

let wait_until ?(timeout_s = 60.0) ?(poll_s = 0.01) msg f =
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

(* Sum of the labeled serve.shed{reason=...} series. *)
let shed_total () =
  List.fold_left
    (fun acc (name, v) ->
      if String.length name >= 10 && String.sub name 0 10 = "serve.shed" then
        acc + v
      else acc)
    0 (Metrics.snapshot ()).Metrics.sn_counters

let gauge_now name = Metrics.gauge_value (Metrics.gauge name)

(* ---------- state fingerprinting ---------- *)

let digest db =
  Digest.to_hex
    (Digest.string (Db_io.manifest_of_files (Db_io.export_files db)))

let fresh_db () =
  let db = Db.create () in
  Ddl_exec.install db;
  db

let recovered dir =
  let db = fresh_db () in
  ignore (Db_io.recover db ~dir);
  db

(* ---------- server fixture ---------- *)

let default_users =
  [ ("admin", Server.Admin); ("analyst", Server.Analyst) ]

let with_server ?(users = default_users) ?durability ~config f =
  let server = Server.create ?durability () in
  List.iter (fun (name, role) -> Server.add_user server ~name ~role) users;
  let sv = Serve.start ~config server in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop sv;
      Session.close (Server.session server))
    (fun () -> f server sv)

let expect_ok label = function
  | Client.Ok { epoch; wal_records; outcomes } -> (epoch, wal_records, outcomes)
  | Client.Shed { reason; _ } -> Alcotest.failf "%s: shed (%s)" label reason
  | Client.Failed { msg; _ } -> Alcotest.failf "%s: failed (%s)" label msg
  | Client.Closing { msg } -> Alcotest.failf "%s: closing (%s)" label msg

(* ---------- raw-socket client (adversarial paths) ---------- *)

let dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_quiet fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let raw_hello fd user =
  Repl.write_frame fd (Proto.encode_client (Proto.C_hello { user }));
  match Option.map Proto.decode_server (Repl.read_frame fd) with
  | Some (Proto.S_hello _) -> ()
  | _ -> Alcotest.fail "raw hello: expected S_hello"

let recv_server fd = Option.map Proto.decode_server (Repl.read_frame fd)

(* ====================================================================
   Protocol codec
   ==================================================================== *)

let test_proto_codec () =
  let client_msgs =
    [
      Proto.C_hello { user = "alice" };
      Proto.C_stmt
        {
          id = 7;
          deadline_ms = 250;
          ir = Bytes.of_string "\x00\xff\x01ir";
          trace = "";
          parent_span = 0;
        };
      Proto.C_stmt
        { id = 0; deadline_ms = 0; ir = Bytes.create 0; trace = ""; parent_span = 0 };
      Proto.C_stmt
        {
          id = 11;
          deadline_ms = 0;
          ir = Bytes.of_string "ir";
          trace = "0123456789abcdef0123456789abcdef";
          parent_span = 42;
        };
      Proto.C_shutdown;
    ]
  in
  List.iter
    (fun m ->
      check_bool "client codec round-trip" true
        (Proto.decode_client (Proto.encode_client m) = m))
    client_msgs;
  let server_msgs =
    [
      Proto.S_hello { role = "analyst" };
      Proto.S_result
        {
          id = 3;
          epoch = 12;
          wal_records = 40;
          outcomes =
            [
              { Proto.ro_kind = Proto.K_table; ro_code = 0; ro_text = "t" };
              { Proto.ro_kind = Proto.K_subgraph; ro_code = 0; ro_text = "sg" };
              { Proto.ro_kind = Proto.K_message; ro_code = 0; ro_text = "ok" };
              { Proto.ro_kind = Proto.K_failed; ro_code = 6; ro_text = "late" };
            ];
        };
      Proto.S_error { id = 9; code = 8; msg = "torn" };
      Proto.S_shed { id = 2; reason = "queue_full"; retry_after_ms = 200 };
      Proto.S_bye { msg = "draining" };
    ]
  in
  List.iter
    (fun m ->
      check_bool "server codec round-trip" true
        (Proto.decode_server (Proto.encode_server m) = m))
    server_msgs;
  let expect_io label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected a typed Io error" label
    | exception Graql_error.Error (Graql_error.Io _) -> ()
  in
  expect_io "garbage client payload" (fun () ->
      Proto.decode_client (Bytes.of_string "\xfe\xfe\xfe"));
  expect_io "server tag in client decoder" (fun () ->
      Proto.decode_client (Proto.encode_server (Proto.S_bye { msg = "x" })));
  expect_io "trailing bytes" (fun () ->
      Proto.decode_server
        (Bytes.cat (Proto.encode_server (Proto.S_bye { msg = "x" }))
           (Bytes.of_string "junk")))

(* ====================================================================
   Handshake, roles, typed statement failures
   ==================================================================== *)

let test_handshake_and_roles () =
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let port = Serve.port sv in
  (match Client.connect ~port ~user:"nobody" () with
  | _ -> Alcotest.fail "unknown user: expected Denied"
  | exception Graql_error.Error (Graql_error.Denied _) -> ());
  let admin = Client.connect ~port ~user:"admin" () in
  let analyst = Client.connect ~port ~user:"analyst" () in
  Fun.protect
    ~finally:(fun () ->
      Client.close admin;
      Client.close analyst)
  @@ fun () ->
  check_str "admin role" "admin" (Client.role admin);
  check_str "analyst role" "analyst" (Client.role analyst);
  ignore (expect_ok "create" (Client.run admin "create table KV(id integer)"));
  (* Analysts may read but not define or ingest — typed Denied (7). *)
  (match Client.run analyst "create table Z(id integer)" with
  | Client.Failed { code; msg } ->
      check_int "analyst ddl code" 7 code;
      check_bool "denial names the user" true
        (String.length msg > 0 && code = 7)
  | _ -> Alcotest.fail "analyst ddl: expected Failed");
  (* Statements are typechecked against the live catalog — typed 3. *)
  (match Client.run admin "select id from table Nope" with
  | Client.Failed { code; _ } -> check_int "analysis code" 3 code
  | _ -> Alcotest.fail "bad select: expected Failed");
  (match Client.run analyst "select id from table KV where id > 0" with
  | Client.Ok { epoch; outcomes; _ } ->
      check_bool "read epoch pinned after one write" true (epoch >= 1);
      check_int "one outcome" 1 (List.length outcomes)
  | _ -> Alcotest.fail "analyst select: expected Ok");
  (* Shutdown is admin-only: the analyst gets a typed refusal and the
     connection stays usable. *)
  (match Client.shutdown analyst with
  | Client.Failed { code; _ } -> check_int "analyst shutdown code" 7 code
  | _ -> Alcotest.fail "analyst shutdown: expected Failed");
  ignore
    (expect_ok "analyst still served"
       (Client.run analyst "select id from table KV where id > 0"))

(* ====================================================================
   Framing under adversarial clients
   ==================================================================== *)

let test_raw_dribbled_statement () =
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let fd = dial (Serve.port sv) in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  (* Hello, then a statement, both dripped one byte at a time: the
     server must reassemble the frames exactly (the per-frame deadline
     is generous; only *stalls* are reaped). *)
  let drip payload =
    let framed = Wal.frame payload in
    for i = 0 to Bytes.length framed - 1 do
      ignore (Unix.write fd framed i 1);
      if i land 7 = 0 then Unix.sleepf 0.001
    done
  in
  drip (Proto.encode_client (Proto.C_hello { user = "admin" }));
  (match recv_server fd with
  | Some (Proto.S_hello { role }) -> check_str "dribbled hello" "admin" role
  | _ -> Alcotest.fail "dribbled hello: expected S_hello");
  let ir = Graql_ir.Codec.encode_script
      (Graql_lang.Parser.parse_script "set %dribble% = 42")
  in
  drip
    (Proto.encode_client
       (Proto.C_stmt { id = 5; deadline_ms = 0; ir; trace = ""; parent_span = 0 }));
  match recv_server fd with
  | Some (Proto.S_result { id; outcomes; _ }) ->
      check_int "statement id echoed" 5 id;
      check_int "one outcome" 1 (List.length outcomes)
  | _ -> Alcotest.fail "dribbled statement: expected S_result"

let test_raw_mid_frame_disconnect () =
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let port = Serve.port sv in
  let errors_before = counter_now "serve.protocol_errors" in
  let fd = dial port in
  raw_hello fd "admin";
  (* Half a frame header, then vanish. *)
  let framed =
    Wal.frame (Proto.encode_client Proto.C_shutdown)
  in
  ignore (Unix.write fd framed 0 5);
  close_quiet fd;
  wait_until "the torn frame to be counted" (fun () ->
      counter_now "serve.protocol_errors" > errors_before);
  (* The server shrugged it off: a well-behaved client is still served. *)
  let cl = Client.connect ~port ~user:"admin" () in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  ignore (expect_ok "still serviceable" (Client.run cl "set %fine% = 1"))

let test_raw_oversized_frame () =
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let port = Serve.port sv in
  let fd = dial port in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  raw_hello fd "admin";
  let hdr = Bytes.create 8 in
  Bytes.set_int32_le hdr 0 (Int32.of_int (Proto.max_frame_bytes + 1));
  Bytes.set_int32_le hdr 4 0l;
  ignore (Unix.write fd hdr 0 8);
  (match recv_server fd with
  | Some (Proto.S_error { code; msg; _ }) ->
      check_int "oversized frame is typed Io" 8 code;
      check_bool "error names the cap" true
        (String.length msg > 0
        && Option.is_some
             (String.index_opt msg 'c' (* "cap" *)))
  | _ -> Alcotest.fail "oversized frame: expected S_error");
  (* The stream cannot be resynced: the server hangs up after the typed
     refusal. *)
  check_bool "connection closed after the refusal" true
    (Repl.read_frame fd = None);
  let cl = Client.connect ~port ~user:"admin" () in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  ignore (expect_ok "still serviceable" (Client.run cl "set %fine% = 2"))

let test_slowloris_reaped () =
  let config =
    { Serve.default_config with Serve.read_timeout_s = 0.3; idle_timeout_s = 10.0 }
  in
  with_server ~config @@ fun _server sv ->
  let reaps_before = counter_now "serve.slow_client_reaps" in
  let fd = dial (Serve.port sv) in
  Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
  raw_hello fd "admin";
  (* Three bytes of a frame, then silence: the frame-completion deadline
     must reap us — the idle allowance only covers the gap *between*
     frames. *)
  let framed = Wal.frame (Proto.encode_client Proto.C_shutdown) in
  ignore (Unix.write fd framed 0 3);
  (match recv_server fd with
  | Some (Proto.S_error { code; msg; _ }) ->
      check_int "slowloris reap is typed Io" 8 code;
      check_bool "reap names the timeout" true
        (String.length msg >= 9
        && String.sub msg (String.length msg - 9) 9 = "timed out")
  | _ -> Alcotest.fail "slowloris: expected S_error");
  check_bool "reap counted" true
    (counter_now "serve.slow_client_reaps" > reaps_before)

(* ====================================================================
   Admission control: deterministic sheds under a held write lock
   ==================================================================== *)

(* Holding [Db.write_locked] freezes every admitted statement at the
   database gate (readers wait out the writer, writers queue behind it),
   so admission decisions become fully deterministic: slots stay
   occupied exactly as long as the test wants. *)
let with_lock_held db f =
  let held = Atomic.make false and release = Atomic.make false in
  let occupier =
    Domain.spawn (fun () ->
        Db.write_locked db (fun () ->
            Atomic.set held true;
            while not (Atomic.get release) do
              Unix.sleepf 0.005
            done))
  in
  wait_until "the write lock to be held" (fun () -> Atomic.get held);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Domain.join occupier)
    f

let test_admission_sheds () =
  let config =
    {
      Serve.default_config with
      Serve.max_inflight = 1;
      max_queue = 1;
      per_user_admitted = 1;
      queue_wait_ms = 250;
      retry_after_ms = 77;
    }
  in
  let users =
    [
      ("u1", Server.Admin); ("u2", Server.Admin); ("u3", Server.Admin);
      ("seed", Server.Admin);
    ]
  in
  with_server ~users ~config @@ fun server sv ->
  let port = Serve.port sv in
  let db = Session.db (Server.session server) in
  let seed = Client.connect ~port ~user:"seed" () in
  ignore (expect_ok "seed" (Client.run seed "create table KV(id integer)"));
  Client.close seed;
  let select = "select id from table KV where id > 0" in
  let admitted_before = counter_now "serve.admitted" in
  let full_before = counter_now {|serve.shed{reason="queue_full"}|} in
  let wait_before = counter_now {|serve.shed{reason="queue_wait"}|} in
  let quota_before = counter_now {|serve.shed{reason="user_quota"}|} in
  let c1 = Client.connect ~port ~user:"u1" () in
  let c2 = Client.connect ~port ~user:"u2" () in
  let c3 = Client.connect ~port ~user:"u3" () in
  let c4 = Client.connect ~port ~user:"u1" () in
  Fun.protect
    ~finally:(fun () -> List.iter Client.close [ c1; c2; c3; c4 ])
  @@ fun () ->
  let r1 = ref None and r2 = ref None in
  let d2 =
    with_lock_held db (fun () ->
        (* c1: admitted into the sole execution slot, parked at the db
           gate. *)
        let d1 = Domain.spawn (fun () -> r1 := Some (Client.run c1 select)) in
        wait_until "c1 to take the execution slot" (fun () ->
            counter_now "serve.admitted" > admitted_before);
        (* c2: queued (depth 1), where it will wait out queue_wait_ms. *)
        let d2 = Domain.spawn (fun () -> r2 := Some (Client.run c2 select)) in
        wait_until "c2 to queue" (fun () -> gauge_now "serve.queue_depth" >= 1.0);
        (* c3: the queue is full — typed immediate shed. *)
        (match Client.run c3 select with
        | Client.Shed { reason; retry_after_ms } ->
            check_str "queue_full shed" "queue_full" reason;
            check_int "retry-after hint" 77 retry_after_ms
        | _ -> Alcotest.fail "c3: expected Shed queue_full");
        (* c4: u1 already has its quota admitted — typed quota shed. *)
        (match Client.run c4 select with
        | Client.Shed { reason; _ } ->
            check_str "user_quota shed" "user_quota" reason
        | _ -> Alcotest.fail "c4: expected Shed user_quota");
        (* c2's wait deadline expires while the slot never frees. *)
        Domain.join d2;
        (match !r2 with
        | Some (Client.Shed { reason; _ }) ->
            check_str "queue_wait shed" "queue_wait" reason
        | _ -> Alcotest.fail "c2: expected Shed queue_wait");
        d1)
  in
  (* Lock released: c1's read completes and is delivered. *)
  Domain.join d2;
  (match !r1 with
  | Some (Client.Ok _) -> ()
  | _ -> Alcotest.fail "c1: expected Ok after the lock released");
  check_bool "shed counters tell the story" true
    (counter_now {|serve.shed{reason="queue_full"}|} > full_before
    && counter_now {|serve.shed{reason="queue_wait"}|} > wait_before
    && counter_now {|serve.shed{reason="user_quota"}|} > quota_before)

let test_connection_cap () =
  let config = { Serve.default_config with Serve.max_connections = 1 } in
  with_server ~config @@ fun _server sv ->
  let port = Serve.port sv in
  let shed_before = counter_now {|serve.shed{reason="connections"}|} in
  let cl = Client.connect ~port ~user:"admin" () in
  (* The second connection gets a typed S_shed at accept, not a RST. *)
  (match Client.connect ~port ~user:"admin" () with
  | _ -> Alcotest.fail "over-cap connect: expected a typed refusal"
  | exception Graql_error.Error (Graql_error.Io msg) ->
      check_bool "refusal names the reason" true
        (String.length msg > 0));
  check_bool "connection shed counted" true
    (counter_now {|serve.shed{reason="connections"}|} > shed_before);
  Client.close cl;
  wait_until "the slot to be recycled" (fun () -> Serve.connections sv = 0);
  let cl2 = Client.connect ~port ~user:"admin" () in
  Client.close cl2

(* ====================================================================
   Deadlines and concurrent reads
   ==================================================================== *)

let test_deadline_reaping () =
  with_temp_dir @@ fun base ->
  let csv = Filename.concat base "big.csv" in
  write_file csv (int_csv 200_000);
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let cl = Client.connect ~port:(Serve.port sv) ~user:"admin" () in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  ignore (expect_ok "ddl" (Client.run cl "create table KV(id integer)"));
  (* The ingest burns far more than the budget; the statement *after* it
     must be reaped by the cooperative deadline with a typed timeout. *)
  let script =
    Printf.sprintf "ingest table KV '%s'\nset %%late%% = 1" csv
  in
  let reply = Client.run ~deadline_ms:40 cl script in
  (match reply with
  | Client.Ok { outcomes; _ } ->
      check_int "two outcomes" 2 (List.length outcomes);
      let last = List.nth outcomes 1 in
      check_bool "trailing statement failed" true
        (last.Proto.ro_kind = Proto.K_failed);
      check_int "typed timeout code" 6 last.Proto.ro_code
  | _ -> Alcotest.fail "deadline script: expected Ok with a failed tail");
  check_int "reply exit code is the timeout's" 6 (Client.reply_exit_code reply);
  (* The reaped statement left no trace; the connection is still good. *)
  match Client.run cl "select id from table KV where id < 3" with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "post-deadline select: expected Ok"

let test_concurrent_reads_during_writes () =
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let port = Serve.port sv in
  let admin = Client.connect ~port ~user:"admin" () in
  Fun.protect ~finally:(fun () -> Client.close admin) @@ fun () ->
  ignore (expect_ok "ddl" (Client.run admin "create table KV(id integer)"));
  let select = "select id from table KV where id > 0" in
  let reader i =
    Domain.spawn (fun () ->
        let cl = Client.connect ~port ~user:"analyst" () in
        Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
        let last_epoch = ref (-1) in
        for j = 1 to 12 do
          match Client.run cl select with
          | Client.Ok { epoch; _ } ->
              (* Pinned epochs only move forward: reads observe the
                 write order, never a rollback. *)
              if epoch < !last_epoch then
                Alcotest.failf "reader %d: epoch went backwards at %d" i j;
              last_epoch := epoch
          | Client.Shed _ -> ()
          | Client.Failed { msg; _ } ->
              Alcotest.failf "reader %d failed: %s" i msg
          | Client.Closing _ -> Alcotest.failf "reader %d: closed" i
        done)
  in
  let readers = List.init 3 reader in
  for i = 1 to 10 do
    ignore
      (expect_ok "interleaved write"
         (Client.run admin (Printf.sprintf "set %%w%% = %d" i)))
  done;
  List.iter Domain.join readers;
  match Client.run admin "select id from table KV where id > 0" with
  | Client.Ok { epoch; _ } ->
      check_bool "writes advanced the epoch" true (epoch >= 11)
  | _ -> Alcotest.fail "final select: expected Ok"

(* The server type-checks against one shared catalog snapshot. When one
   connection changes the catalog (DDL, an ingest, a result table), the
   next statement on another connection must see the change: it
   type-checks and returns what an in-process session returns. *)
let test_no_stale_snapshot () =
  with_temp_dir @@ fun base ->
  let csv = Filename.concat base "items.csv" in
  write_file csv "id,grp\ni1,x\ni2,y\ni3,x\n";
  let writes =
    [
      "create table Item(id varchar(8), grp varchar(8))";
      "create vertex ItemVtx(id) from table Item";
      Printf.sprintf "ingest table Item '%s'" csv;
      "select id, grp from table Item where grp = 'x' into table R";
    ]
  in
  let reads =
    [ "select id from table R"; "select ItemVtx.id from graph ItemVtx ( )" ]
  in
  let expected =
    let s = Session.create () in
    List.iter (fun w -> ignore (Session.run_script s w)) writes;
    List.map
      (fun r ->
        match Session.run_script s r with
        | [ (_, Graql_engine.Script_exec.O_table tb) ] ->
            Graql_storage.Table.to_display_string tb
        | _ -> Alcotest.failf "in-process %S: expected a table" r)
      reads
  in
  with_server ~config:Serve.default_config @@ fun _server sv ->
  let port = Serve.port sv in
  let a = Client.connect ~port ~user:"admin" () in
  let b = Client.connect ~port ~user:"analyst" () in
  Fun.protect ~finally:(fun () -> Client.close a; Client.close b) @@ fun () ->
  (* B reads first, so a snapshot of the old catalog is in place. *)
  ignore (expect_ok "seed" (Client.run a "create table Seed(id integer)"));
  ignore (expect_ok "seed read" (Client.run b "select id from table Seed"));
  List.iter (fun w -> ignore (expect_ok w (Client.run a w))) writes;
  List.iter2
    (fun r want ->
      match expect_ok r (Client.run b r) with
      | _, _, [ o ] ->
          check_bool (r ^ ": a table") true (o.Proto.ro_kind = Proto.K_table);
          check_str (r ^ ": in-process rows") want o.Proto.ro_text
      | _ -> Alcotest.failf "%s: one outcome expected" r)
    reads expected

(* ====================================================================
   Graceful drain: acknowledged writes survive the WAL close
   ==================================================================== *)

let test_drain_preserves_acked () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  let server =
    Server.create ~durability:(Session.Wal_dir data) ()
  in
  List.iter
    (fun (name, role) -> Server.add_user server ~name ~role)
    default_users;
  let session = Server.session server in
  let sv = Serve.start ~config:Serve.default_config server in
  let port = Serve.port sv in
  let cl = Client.connect ~port ~user:"admin" () in
  let cl2 = Client.connect ~port ~user:"admin" () in
  Fun.protect
    ~finally:(fun () ->
      Client.close cl;
      Client.close cl2;
      Serve.stop sv)
  @@ fun () ->
  let _, logged, _ =
    expect_ok "acked write"
      (Client.run cl "create table KV(id integer)\nset %acked% = 1")
  in
  check_bool "acked write is in the log" true (logged > 0);
  (* An admin shutdown over the wire starts the drain. *)
  (match Client.shutdown cl2 with
  | Client.Closing { msg } -> check_str "drain announced" "draining" msg
  | _ -> Alcotest.fail "shutdown: expected Closing");
  (* Post-drain statements get a typed answer, never a hang: either the
     admission shed or the goodbye, depending on which side won the
     race. *)
  (match Client.run cl "set %late% = 9" with
  | Client.Shed { reason; _ } -> check_str "drain shed" "draining" reason
  | Client.Closing _ -> ()
  | Client.Ok _ -> Alcotest.fail "post-drain write was accepted"
  | Client.Failed { msg; _ } -> Alcotest.failf "post-drain: %s" msg);
  Serve.wait sv;
  Serve.stop sv;
  let served = digest (Session.db session) in
  Session.close session;
  let rdb = recovered data in
  check_str "drained state survives the WAL close byte-for-byte" served
    (digest rdb);
  check_bool "the acked write is durable" true
    (Db.find_param rdb "acked" = Some (Value.Int 1));
  check_bool "the shed write is not" true (Db.find_param rdb "late" = None)

(* ====================================================================
   The CLI surface: graql serve / graql connect, SIGTERM drain
   ==================================================================== *)

let graql_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "graql_cli.exe")

let spawn_cli ~log argv =
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process graql_bin
      (Array.append [| graql_bin |] argv)
      null logfd logfd
  in
  Unix.close null;
  Unix.close logfd;
  pid

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let reap_exit ?(timeout_s = 60.0) pid =
  let res = ref (-1) in
  wait_until ~timeout_s "a client process to exit" (fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _, Unix.WEXITED n ->
          res := n;
          true
      | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
          res := 255;
          true);
  !res

let find_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = find_sub hay needle <> None

(* The port `graql serve` announces on stderr ("serving on
   127.0.0.1:PORT"), as the CI soak scrapes it. *)
let announced_port log =
  if not (Sys.file_exists log) then None
  else
    let doc = read_file log in
    match find_sub doc "serving on 127.0.0.1:" with
    | None -> None
    | Some i ->
        let start = i + String.length "serving on 127.0.0.1:" in
        let b = Buffer.create 8 in
        let rec go j =
          if
            j < String.length doc
            && doc.[j] >= '0'
            && doc.[j] <= '9'
          then begin
            Buffer.add_char b doc.[j];
            go (j + 1)
          end
        in
        go start;
        int_of_string_opt (Buffer.contents b)

let connect_argv ~port ~user exec =
  [| "connect"; Printf.sprintf "127.0.0.1:%d" port; "--user"; user;
     "--exec"; exec |]

let test_cli_serve_sigterm_drain () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  let slog = Filename.concat base "serve.log" in
  let clog = Filename.concat base "clients.log" in
  let pid =
    spawn_cli ~log:slog
      [| "serve"; "--port"; "0"; "--wal"; "--data-dir"; data |]
  in
  Fun.protect ~finally:(fun () -> kill_and_reap pid) @@ fun () ->
  wait_until "the server to announce its port" (fun () ->
      announced_port slog <> None);
  let port = Option.get (announced_port slog) in
  let c1 =
    spawn_cli ~log:clog
      (connect_argv ~port ~user:"admin"
         "create table T(id integer)\nset %x% = 1")
  in
  check_int "admin write accepted" 0 (reap_exit c1);
  (* The default accounts are live: the analyst is typed-refused DDL
     over the wire, exit 7 end to end. *)
  let c2 =
    spawn_cli ~log:clog
      (connect_argv ~port ~user:"analyst" "create table Z(id integer)")
  in
  check_int "analyst ddl refused with 7" 7 (reap_exit c2);
  let c3 =
    spawn_cli ~log:clog
      (connect_argv ~port ~user:"analyst" "select id from table T where id > 0")
  in
  check_int "analyst read accepted" 0 (reap_exit c3);
  (* SIGTERM: drain, close the WAL, exit 0. *)
  Unix.kill pid Sys.sigterm;
  check_int "graceful exit" 0 (reap_exit pid);
  check_bool "drain announced" true (contains (read_file slog) "draining");
  let rdb = recovered data in
  check_bool "the acked write survived the drain" true
    (Db.find_param rdb "x" = Some (Value.Int 1))

(* ====================================================================
   Headline: the overload chaos drill
   ==================================================================== *)

let chaos_users =
  [ ("boss", Server.Admin); ("analyst", Server.Analyst);
    ("v1", Server.Admin); ("v2", Server.Admin) ]
  @ List.init 6 (fun i -> (Printf.sprintf "w%d" (i + 1), Server.Admin))
  @ List.init 4 (fun i -> (Printf.sprintf "r%d" (i + 1), Server.Analyst))

let test_overload_chaos () =
  with_temp_dir @@ fun base ->
  let data = Filename.concat base "db" in
  let clog = Filename.concat base "clients.log" in
  let small = Filename.concat base "small.csv" in
  write_file small (int_csv 2_000);
  let big = Filename.concat base "big.csv" in
  write_file big (int_csv 150_000);
  let config =
    {
      Serve.default_config with
      Serve.max_inflight = 2;
      max_queue = 2;
      per_user_admitted = 2;
      queue_wait_ms = 150;
      retry_after_ms = 50;
    }
  in
  let server = Server.create ~durability:(Session.Wal_dir data) () in
  List.iter
    (fun (name, role) -> Server.add_user server ~name ~role)
    chaos_users;
  let session = Server.session server in
  let db = Session.db session in
  let sv = Serve.start ~config server in
  let port = Serve.port sv in
  let live_pids = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill_and_reap !live_pids;
      Serve.stop sv)
  @@ fun () ->
  let boss = Client.connect ~port ~user:"boss" () in
  ignore (expect_ok "seed" (Client.run boss "create table KV(id integer)"));
  let spawn_connect ~user exec =
    let pid = spawn_cli ~log:clog (connect_argv ~port ~user exec) in
    live_pids := pid :: !live_pids;
    pid
  in
  (* ---- phase 1: flood a saturated server — typed sheds, no hangs ----
     With the write lock held, the two admitted statements park at the
     database gate and every other arrival must exhaust the queue and
     shed: each of the six clients exits either 0 (admitted, completed
     once the lock released) or 8 (typed shed) — nothing hangs, nothing
     crashes. *)
  let shed_before = shed_total () in
  let p1 =
    with_lock_held db (fun () ->
        let pids =
          List.init 6 (fun i ->
              let i = i + 1 in
              ( i,
                spawn_connect
                  ~user:(Printf.sprintf "w%d" i)
                  (Printf.sprintf "set %%p1_w%d%% = %d" i i) ))
        in
        wait_until "the overload to shed" (fun () -> shed_total () > shed_before);
        pids)
  in
  let p1 = List.map (fun (i, pid) -> (i, reap_exit pid)) p1 in
  List.iter
    (fun (i, code) ->
      if code <> 0 && code <> 8 then
        Alcotest.failf "phase-1 writer %d: untyped exit %d" i code)
    p1;
  check_bool "saturation produced typed sheds" true
    (List.exists (fun (_, code) -> code = 8) p1);
  check_bool "the lock's release drained the admitted writers" true
    (List.exists (fun (_, code) -> code = 0) p1);
  (* ---- phase 2: free-for-all with faults armed (GRAQL_FAULT_SEED
     propagates to the in-process session): slow ingests, readers,
     victims SIGKILLed mid-statement, and a client that tears a frame. *)
  let errors_before = counter_now "serve.protocol_errors" in
  let victims =
    List.map
      (fun i ->
        spawn_connect
          ~user:(Printf.sprintf "v%d" i)
          (Printf.sprintf "ingest table KV '%s'\nset %%v%d%% = 1" big i))
      [ 1; 2 ]
  in
  let writers =
    List.init 6 (fun i ->
        let i = i + 1 in
        ( i,
          spawn_connect
            ~user:(Printf.sprintf "w%d" i)
            (Printf.sprintf "ingest table KV '%s'\nset %%p2_w%d%% = %d" small
               i i) ))
  in
  let readers =
    List.init 4 (fun i ->
        spawn_connect
          ~user:(Printf.sprintf "r%d" (i + 1))
          "select id from table KV where id < 5")
  in
  (* A torn frame mid-flood: hello, half a header, gone. *)
  let drib = dial port in
  raw_hello drib "analyst";
  let framed = Wal.frame (Proto.encode_client Proto.C_shutdown) in
  ignore (Unix.write drib framed 0 5);
  Unix.sleepf 0.2;
  close_quiet drib;
  (* SIGKILL the victims mid-statement; the server must not notice
     beyond a failed reply send. *)
  List.iter
    (fun pid ->
      try Unix.kill pid Sys.sigkill
      with Unix.Unix_error (Unix.ESRCH, _, _) -> ())
    victims;
  List.iter kill_and_reap victims;
  let writers = List.map (fun (i, pid) -> (i, reap_exit pid)) writers in
  let readers = List.map reap_exit readers in
  List.iter
    (fun (i, code) ->
      if code <> 0 && code <> 8 then
        Alcotest.failf "phase-2 writer %d: untyped exit %d" i code)
    writers;
  List.iter
    (fun code ->
      if code <> 0 && code <> 8 then
        Alcotest.failf "reader: untyped exit %d" code)
    readers;
  wait_until "the torn frame to be counted" (fun () ->
      counter_now "serve.protocol_errors" > errors_before);
  (* ---- graceful shutdown: nothing acknowledged is lost ---- *)
  let boss2 = Client.connect ~port ~user:"boss" () in
  let rec fin attempts =
    match Client.run boss2 "set %fin% = 1" with
    | Client.Ok { wal_records; _ } -> wal_records
    | Client.Shed _ when attempts > 0 ->
        Unix.sleepf 0.1;
        fin (attempts - 1)
    | r -> Alcotest.failf "fin was not accepted (exit %d)" (Client.reply_exit_code r)
  in
  check_bool "fin is in the log" true (fin 50 > 0);
  (match Client.shutdown boss2 with
  | Client.Closing _ -> ()
  | _ -> Alcotest.fail "shutdown: expected Closing");
  (* The old boss connection gets a typed answer during the drain. *)
  (match Client.run boss "set %too_late% = 1" with
  | Client.Shed { reason; _ } -> check_str "drain shed" "draining" reason
  | Client.Closing _ -> ()
  | Client.Ok _ -> Alcotest.fail "post-drain write was accepted"
  | Client.Failed { msg; _ } -> Alcotest.failf "post-drain: %s" msg);
  Client.close boss;
  Client.close boss2;
  Serve.stop sv;
  let served = digest db in
  let wal_records =
    match Session.wal session with Some w -> Wal.records w | None -> 0
  in
  check_bool "the drill wrote a real log" true (wal_records > 0);
  Session.close session;
  (* THE invariant: a fresh, sequential replay of the accepted log
     reproduces exactly the state the concurrent server served. *)
  let rdb = recovered data in
  check_str "sequential replay of the accepted log = served state" served
    (digest rdb);
  (* Accepted ⟺ durable, per phase-1/2 writer (victims excluded: their
     acceptance raced the SIGKILL). *)
  List.iter
    (fun (prefix, outcomes) ->
      List.iter
        (fun (i, code) ->
          let param = Printf.sprintf "%s%d" prefix i in
          match code with
          | 0 ->
              check_bool (param ^ " accepted => durable") true
                (Db.find_param rdb param = Some (Value.Int i))
          | _ ->
              check_bool (param ^ " shed => no trace") true
                (Db.find_param rdb param = None))
        outcomes)
    [ ("p1_w", p1); ("p2_w", writers) ];
  check_bool "fin survived the drain" true
    (Db.find_param rdb "fin" = Some (Value.Int 1));
  check_bool "the post-drain write left no trace" true
    (Db.find_param rdb "too_late" = None)

(* ====================================================================
   Distributed tracing acceptance (DESIGN.md §16): one statement issued
   through the wire client against a replicating primary yields ONE
   trace id stitching client → admission → executor → WAL fsync →
   follower apply. Everything runs in-process here, so all five layers
   record into the same ring and parentage is directly checkable; the
   cross-process version of the same assertion (separate rings merged
   with [trace-merge]) lives in the CI trace-propagation job and the
   replication chaos drill. *)

module Follower = Graql_gems.Follower
module Trace = Graql_obs.Trace

let test_trace_stitching () =
  with_temp_dir @@ fun base ->
  let pdir = Filename.concat base "primary" in
  let server = Server.create ~durability:(Session.Wal_dir pdir) () in
  List.iter
    (fun (name, role) -> Server.add_user server ~name ~role)
    default_users;
  let session = Server.session server in
  let wal = Option.get (Session.wal session) in
  let p = Repl.start_primary ~port:0 wal in
  let f = Follower.start ~port:(Repl.primary_port p)
      ~dir:(Filename.concat base "follower") () in
  let sv = Serve.start ~config:Serve.default_config server in
  Trace.clear ();
  Trace.arm ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disarm ();
      Follower.stop f;
      Repl.stop_primary p;
      Serve.stop sv;
      Session.close session)
  @@ fun () ->
  let cl = Client.connect ~port:(Serve.port sv) ~user:"admin" () in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  (* A follower that starts empty is resynced by a snapshot, which is
     installed through recovery and records no [repl.apply]; and the
     primary tags each ack with the trace of the last chunk it shipped.
     Wait until the follower holds the primary's log and has acked it,
     so the traced write travels as a streamed chunk of its own. *)
  wait_until "the follower to register and ack the primary's log" (fun () ->
      Repl.min_acked p = Some (Wal.epoch wal, Wal.size wal));
  let trace = Trace.new_trace_id () in
  ignore (expect_ok "traced stmt" (Client.run ~trace cl "set %traced% = 1"));
  (* The primary records [repl.ack] in this trace when the follower's
     ack arrives, which can trail the follower's own progress. *)
  wait_until "the traced record to reach the follower and be acked" (fun () ->
      Follower.offset f = Wal.size wal
      && Follower.lag_records f = 0
      && List.exists
           (fun e -> e.Trace.ev_name = "repl.ack")
           (Trace.events_of_trace trace));
  let evs = Trace.events_of_trace trace in
  let find name =
    match List.find_opt (fun e -> e.Trace.ev_name = name) evs with
    | Some e -> e
    | None ->
        Alcotest.failf "span %S missing from trace %s (got: %s)" name trace
          (String.concat ", "
             (List.map (fun e -> e.Trace.ev_name) evs))
  in
  let client = find "client.stmt" in
  let admit = find "serve.admit" in
  let stmt = find "serve.stmt" in
  let exec =
    match
      List.find_opt
        (fun e ->
          String.length e.Trace.ev_name > 5
          && String.sub e.Trace.ev_name 0 5 = "stmt:")
        evs
    with
    | Some e -> e
    | None -> Alcotest.fail "executor stmt:* span missing from the trace"
  in
  let append = find "wal.append" in
  let fsync = find "wal.fsync" in
  let apply = find "repl.apply" in
  ignore (find "repl.ship");
  (* Parentage: the client span is the root; admission and execution
     hang off it; the fsync is a child of the append, which happened
     inside the executor's statement span. The follower's apply span
     has no in-ring parent (its parent lives across the "wire") but
     carries the same trace id — that is what stitches the lanes. *)
  check_int "client.stmt is the root" 0 client.Trace.ev_parent;
  check_int "serve.admit hangs off the client span" client.Trace.ev_id
    admit.Trace.ev_parent;
  check_int "serve.stmt hangs off the client span" client.Trace.ev_id
    stmt.Trace.ev_parent;
  check_int "wal.fsync is a child of wal.append" append.Trace.ev_id
    fsync.Trace.ev_parent;
  check_str "executor span carries the trace id" trace exec.Trace.ev_trace;
  check_str "follower apply carries the trace id" trace apply.Trace.ev_trace;
  (* The stitched dump: every span of this statement — and only this
     statement — is in the filtered Chrome-trace export, trace-id-tagged
     and role-labeled for the merged Perfetto view. *)
  let dump = Trace.to_chrome_json ~trace_id:trace ~role:"server" () in
  List.iter
    (fun name ->
      check_bool (Printf.sprintf "dump has %s" name) true
        (let re = Printf.sprintf "\"name\":\"%s\"" name in
         let rec scan i =
           i + String.length re <= String.length dump
           && (String.sub dump i (String.length re) = re || scan (i + 1))
         in
         scan 0))
    [ "client.stmt"; "serve.admit"; "serve.stmt"; "wal.fsync"; "repl.apply";
      "process_name" ];
  (* An untraced control statement must not leak into the trace. *)
  ignore (expect_ok "untraced stmt" (Client.run ~trace:"" cl "set %plain% = 2"));
  let evs' = Trace.events_of_trace trace in
  check_int "the untraced statement added nothing to the trace"
    (List.length evs) (List.length evs')

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "codec round-trips, typed corruption" `Quick
            test_proto_codec;
          Alcotest.test_case "handshake, roles, typed failures" `Quick
            test_handshake_and_roles;
        ] );
      ( "framing",
        [
          Alcotest.test_case "dribbled frames reassemble" `Quick
            test_raw_dribbled_statement;
          Alcotest.test_case "mid-frame disconnect is absorbed" `Quick
            test_raw_mid_frame_disconnect;
          Alcotest.test_case "oversized frame is typed and dropped" `Quick
            test_raw_oversized_frame;
          Alcotest.test_case "slowloris is reaped" `Quick test_slowloris_reaped;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue_full / queue_wait / user_quota" `Quick
            test_admission_sheds;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
        ] );
      ( "execution",
        [
          Alcotest.test_case "per-statement deadlines reap" `Quick
            test_deadline_reaping;
          Alcotest.test_case "reads run concurrently with writes" `Quick
            test_concurrent_reads_during_writes;
          Alcotest.test_case "no stale catalog across connections" `Quick
            test_no_stale_snapshot;
        ] );
      ( "drain",
        [
          Alcotest.test_case "acked writes survive the drain" `Quick
            test_drain_preserves_acked;
        ] );
      ( "cli",
        [
          Alcotest.test_case "serve + connect + SIGTERM drain" `Quick
            test_cli_serve_sigterm_drain;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "overload drill" `Quick test_overload_chaos;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "one trace id stitches client to follower"
            `Quick test_trace_stitching;
        ] );
    ]
