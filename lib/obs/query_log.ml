module Json = Graql_util.Json

type outcome = Ok | Degraded | Failed | Timeout

let outcome_name = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Failed -> "failed"
  | Timeout -> "timeout"

type record = {
  r_id : int;
  r_ts : float;
  r_user : string option;
  r_trace : string;
  r_kind : string;
  r_ms : float;
  r_rows : int;
  r_outcome : outcome;
  r_retries : int;
  r_error : string option;
  r_ledger : Ledger.t option;
}

let id_counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add id_counter 1

(* The sink is read on every statement; keep the fast path (no sink, no
   env var) to one atomic load of [installed]. *)
let installed = Atomic.make false
let mutex = Mutex.create ()
let sink : (string -> unit) option ref = ref None
let file : out_channel option ref = ref None
let env_read = ref false
let env_var = "GRAQL_QUERY_LOG"

let user : string option ref = ref None

(* Per-domain override: the serve layer runs one connection per domain,
   each with its own authenticated user; a process-global ref would let
   concurrent connections clobber each other's attribution. The global
   [set_user] remains the default for single-session embedders. *)
let dls_user : string option option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_user u = user := u
let set_domain_user u = Domain.DLS.set dls_user u

let current_user () =
  match Domain.DLS.get dls_user with Some u -> u | None -> !user

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let close_file_locked () =
  match !file with
  | Some oc ->
      (try close_out oc with Sys_error _ -> ());
      file := None
  | None -> ()

let install_locked s =
  sink := s;
  Atomic.set installed (s <> None)

let open_file path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  locked (fun () ->
      env_read := true;
      close_file_locked ();
      file := Some oc;
      install_locked
        (Some
           (fun line ->
             output_string oc line;
             output_char oc '\n';
             flush oc)))

let set_sink s =
  locked (fun () ->
      env_read := true;
      close_file_locked ();
      install_locked s)

let read_env_once () =
  locked (fun () ->
      if not !env_read then begin
        env_read := true;
        match Sys.getenv_opt env_var with
        | None | Some "" -> ()
        | Some path -> (
            match open_out_gen [ Open_append; Open_creat ] 0o644 path with
            | oc ->
                file := Some oc;
                install_locked
                  (Some
                     (fun line ->
                       output_string oc line;
                       output_char oc '\n';
                       flush oc))
            | exception Sys_error msg ->
                Printf.eprintf
                  "graql: warning: cannot open %s=%S (%s); query log \
                   disabled\n%!"
                  env_var path msg)
      end)

let enabled () =
  if not !env_read then read_env_once ();
  Atomic.get installed

let json_of_record r =
  let buf = Buffer.create 192 in
  Buffer.add_string buf
    (Printf.sprintf "{\"id\": %d, \"ts\": %.6f, " r.r_id r.r_ts);
  (match r.r_user with
  | Some u -> Buffer.add_string buf (Printf.sprintf "\"user\": %s, " (Json.quote u))
  | None -> ());
  if r.r_trace <> "" then
    Buffer.add_string buf
      (Printf.sprintf "\"trace_id\": %s, " (Json.quote r.r_trace));
  Buffer.add_string buf
    (Printf.sprintf
       "\"stmt\": %s, \"wall_ms\": %.3f, \"rows\": %d, \"outcome\": %s, \
        \"retries\": %d"
       (Json.quote (Redact.statement r.r_kind))
       r.r_ms r.r_rows
       (Json.quote (outcome_name r.r_outcome))
       r.r_retries);
  (match r.r_error with
  | Some e ->
      Buffer.add_string buf
        (Printf.sprintf ", \"error\": %s" (Json.quote (Redact.statement e)))
  | None -> ());
  (match r.r_ledger with
  | Some lg ->
      Buffer.add_string buf
        (Printf.sprintf ", \"ledger\": %s" (Ledger.to_json lg))
  | None -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let log r =
  if enabled () then begin
    let line = json_of_record r in
    let s = locked (fun () -> !sink) in
    match s with Some f -> f line | None -> ()
  end

let close () =
  locked (fun () ->
      close_file_locked ();
      install_locked None)
