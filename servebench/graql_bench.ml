(* The repository benchmark: served workloads against the real
   [graql serve] binary, end-to-end metrics measured with tracing off,
   and a traced in-process replay that breaks a statement down by layer.

     graql_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                     [--server PATH] [--trace-out FILE] [--repeat N]
     graql_bench.exe --smoke

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. README.md next to
   this file explains the workloads and the metrics. *)

module Client = Graql.Client
module Proto = Graql.Serve.Proto
module Trace = Graql.Obs.Trace
module Metrics = Graql.Obs.Metrics
module Session = Graql.Session
module Db = Graql.Db
module Ast = Graql.Ast
module Table = Graql.Table
module Value = Graql.Value
module Rng = Graql_util.Rng
module BGen = Graql.Berlin.Gen
module BQ = Graql.Berlin.Queries
module BRef = Graql.Berlin.Reference
module SGen = Graql.Snb.Gen
module SQ = Graql.Snb.Queries
module SRef = Graql.Snb.Reference

exception Bench_failure of string

let failf fmt = Printf.ksprintf (fun m -> raise (Bench_failure m)) fmt
let note fmt = Printf.eprintf (fmt ^^ "\n%!")
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples and statistics                                              *)

type samples = { mutable buf : float array; mutable len : int }

let samples () = { buf = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0.0 in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

let contents s = Array.sub s.buf 0 s.len

(* Nearest rank: the smallest sample with at least a share [p] of all
   samples at or below it. p95 of 200 samples leaves 10 above it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes
   them (the "exclusive" method), so --repeat prints the spread the way
   the bounds in BENCHMARK.json are checked. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* ------------------------------------------------------------------ *)
(* Data sets                                                           *)

type shape = Berlin of BGen.counts | Snb of SGen.counts

type dataset = {
  shape : shape;
  seed : int;
  scale : int;
  files : (string * string) list;  (** CSV file name -> contents *)
  ddl : string;
  tables : (string * string) list;  (** table -> CSV file, ingest order *)
}

(* Berlin_gen draws Zipf samples whose CDFs Rng memoizes in a table of at
   most 64 entries. The type hierarchy draws with a different n per row
   and fills the table first, so the product, offer and review CDFs are
   rebuilt on every draw (5 s at SF32). Computing the large CDFs first
   leaves the data unchanged, since the table only memoizes, and cuts
   SF32 generation from 5 s to 0.2 s. *)
let prime_berlin_zipf (c : BGen.counts) =
  let r = Rng.make 0 in
  List.iter
    (fun (n, s) -> ignore (Rng.zipf r ~n ~s))
    [
      (c.BGen.n_producers, 1.1);
      (c.BGen.n_products, 0.8);
      (c.BGen.n_products, 0.9);
      (c.BGen.n_persons, 0.7);
      (c.BGen.n_features, 0.6);
    ]

let berlin ~seed ~scale =
  let c = BGen.counts ~scale in
  prime_berlin_zipf c;
  {
    shape = Berlin c;
    seed;
    scale;
    files = BGen.csv_files ~seed ~scale ();
    ddl = Graql.Berlin.Schema_ddl.full_ddl;
    tables = BGen.table_files;
  }

let snb ~seed ~scale =
  {
    shape = Snb (SGen.counts ~scale);
    seed;
    scale;
    files = SGen.csv_files ~seed ~scale ();
    ddl = Graql.Snb.Schema_ddl.full_ddl;
    tables = SGen.table_files;
  }

let berlin_counts ds =
  match ds.shape with Berlin c -> c | Snb _ -> invalid_arg "not a Berlin data set"

let snb_counts ds =
  match ds.shape with Snb c -> c | Berlin _ -> invalid_arg "not an SNB data set"

(* ------------------------------------------------------------------ *)
(* Request streams                                                     *)

let lit s = "'" ^ s ^ "'"

let replace_all s pat by =
  let n = String.length pat and len = String.length s in
  let b = Buffer.create (len + 16) in
  let rec go i =
    if i > len - n then Buffer.add_substring b s i (len - i)
    else if s.[i] = pat.[0] && String.sub s i n = pat then begin
      Buffer.add_string b by;
      go (i + n)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Parameters are substituted client-side as literals, so concurrent
   connections never race on the server's session parameters. *)
let subst text params =
  List.fold_left
    (fun acc (name, v) -> replace_all acc ("%" ^ name ^ "%") v)
    text params

let pick rng a = a.(Random.State.int rng (Array.length a))

let point_read ~product ~two_hop =
  if two_hop then
    Printf.sprintf
      "select OfferVtx.id, VendorVtx.country from graph ProductVtx (id = \
       'p%d') <--product-- OfferVtx ( ) --vendor--> VendorVtx ( )"
      product
  else
    Printf.sprintf
      "select FeatureVtx.id from graph ProductVtx (id = 'p%d') --feature--> \
       FeatureVtx ( )"
      product

let point_stream ds rng =
  let c = berlin_counts ds in
  let product = Random.State.int rng c.BGen.n_products in
  let two_hop = Random.State.bool rng in
  point_read ~product ~two_hop

let bi_queries =
  [|
    BQ.q1;
    BQ.q2;
    BQ.fig9_type_matching;
    BQ.fig10_regex;
    BQ.fig13_into_table;
    BQ.bi4_rating_by_country;
    BQ.bi5_delivery_pricing;
    BQ.bi6_similar_cheaper;
    BQ.bi7_top_reviewers;
    BQ.bi8_product_reach;
  |]

let bi_stream ds rng =
  let c = berlin_counts ds in
  let q = pick rng bi_queries in
  let product = Random.State.int rng c.BGen.n_products in
  let c1 = pick rng BGen.countries in
  let c2 = pick rng BGen.countries in
  let max_price = 500 + Random.State.int rng 4500 in
  subst q
    [
      ("Product1", lit (Printf.sprintf "p%d" product));
      ("Country1", lit c1);
      ("Country2", lit c2);
      ("MaxPrice", Printf.sprintf "%d.0" max_price);
    ]

(* All seven traversals. Their costs form three clusters (chain and
   root walks ~0.1 ms, the four knows closures 5-7 ms, the star-plus-posts
   query ~20 ms); with seven the median lands inside the middle cluster
   rather than in the gap beside it, which keeps p50 steady. *)
let snb_queries = Array.of_list (List.map snd SQ.all)

let snb_stream ds rng =
  let c = snb_counts ds in
  let q = pick rng snb_queries in
  let person = Random.State.int rng c.SGen.n_people in
  let comment = Random.State.int rng c.SGen.n_comments in
  let forum = Random.State.int rng c.SGen.n_forums in
  subst q
    [
      ("Person1", lit (Printf.sprintf "u%d" person));
      ("Comment1", lit (Printf.sprintf "c%d" comment));
      ("Forum1", lit (Printf.sprintf "fo%d" forum));
    ]

(* One reader connection's statements: the served run and the traced
   replay draw from the same seeded stream. *)
let stream_rng ds conn = Random.State.make [| ds.seed; conn; 0x5eed |]

let first_read ds =
  match ds.shape with
  | Berlin _ -> point_read ~product:0 ~two_hop:false
  | Snb _ -> "select f.id from graph Person (id = 'u0') --knows--> def f: Person ( )"

(* ------------------------------------------------------------------ *)
(* Ingest batches of 20 new rows: uniquely keyed reviews on Berlin,
   likes on SNB (whose only dependent view is the [likes] edge).       *)

let batch_rows = 20

let batch_table ds =
  match ds.shape with Berlin _ -> "Reviews" | Snb _ -> "LikesRel"

let batch_csv ds k =
  let rng = Random.State.make [| ds.seed; k; 0xba7c |] in
  let b = Buffer.create 2048 in
  let day () =
    let m = 1 + Random.State.int rng 12 in
    let d = 1 + Random.State.int rng 28 in
    Printf.sprintf "%02d-%02d" m d
  in
  (match ds.shape with
  | Berlin c ->
      Buffer.add_string b
        "id,type,reviewFor,reviewer,reviewDate,title,text,ratings_1,ratings_2,ratings_3,ratings_4,publisher,date\n";
      for i = 0 to batch_rows - 1 do
        let product = Random.State.int rng c.BGen.n_products in
        let person = Random.State.int rng c.BGen.n_persons in
        let reviewed = day () in
        let r1 = 1 + Random.State.int rng 10 in
        let r2 = 1 + Random.State.int rng 10 in
        let r3 = 1 + Random.State.int rng 10 in
        let r4 = 1 + Random.State.int rng 10 in
        let published = day () in
        Printf.bprintf b
          "x%07d,Review,p%d,u%d,2008-%s,fresh review,new,%d,%d,%d,%d,pub%d,2008-%s\n"
          ((k * batch_rows) + i)
          product person reviewed r1 r2 r3 r4 (i mod 5) published
      done
  | Snb c ->
      Buffer.add_string b "person,post,creationDate\n";
      for _ = 1 to batch_rows do
        let person = Random.State.int rng c.SGen.n_people in
        let post = Random.State.int rng c.SGen.n_posts in
        let created = day () in
        Printf.bprintf b "u%d,po%d,2012-%s\n" person post created
      done);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Work directory                                                      *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec tree_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + tree_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

type work = { root : string; data : string; batches : string }

let work_dir ~run =
  let base = Filename.concat (Sys.getcwd ()) ".servebench" in
  if not (Sys.file_exists base) then Sys.mkdir base 0o755;
  let root = Filename.concat base (Printf.sprintf "%d-%d" (Unix.getpid ()) run) in
  remove_tree root;
  Sys.mkdir root 0o755;
  let w =
    {
      root;
      data = Filename.concat root "data";
      batches = Filename.concat root "batches";
    }
  in
  Sys.mkdir w.data 0o755;
  Sys.mkdir w.batches 0o755;
  if String.contains root '\'' then failf "work directory %S contains a quote" root;
  w

let ingest_stmt table path = Printf.sprintf "ingest table %s '%s'" table path

let ingest_script ds work =
  String.concat "\n"
    (List.map
       (fun (table, file) -> ingest_stmt table (Filename.concat work.data file))
       ds.tables)

let batch_path work k =
  Filename.concat work.batches (Printf.sprintf "b%05d.csv" k)

let batch_stmt ds work k = ingest_stmt (batch_table ds) (batch_path work k)

let write_inputs ds work ~batches =
  List.iter
    (fun (file, text) -> write_file (Filename.concat work.data file) text)
    ds.files;
  for k = 0 to batches - 1 do
    write_file (batch_path work k) (batch_csv ds k)
  done

let input_bytes ds = List.fold_left (fun acc (_, t) -> acc + String.length t) 0 ds.files

(* ------------------------------------------------------------------ *)
(* Child processes: the server and the calibration loop                *)

let live_children = ref []

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_children;
  live_children := []

let forget pid = live_children := List.filter (( <> ) pid) !live_children

let spawn prog args ~env ~out =
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () -> Unix.create_process_env prog (Array.of_list (prog :: args)) env null fd fd)
  in
  live_children := pid :: !live_children;
  pid

(* SIGTERM, then wait up to 10 s; false if it had to be killed. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        forget pid;
        false
    | 0, _ ->
        Unix.sleepf 0.002;
        reap ()
    | _ ->
        forget pid;
        true
  in
  reap ()

type server = { pid : int; port : int; data_dir : string option }

(* The ingest_reads writer logs about 35 KiB/s, so the log is folded into
   a checkpoint about once per 15 s window (the set-up's ingest makes one
   more). A stall delays the checkpointing ingest and the few due behind
   it, which keeps the stalls above p95 of the window's 300 ingests;
   with checkpoints twice as often, p95 fell among them and varied by 18%
   between runs. *)
let checkpoint_bytes = 512 * 1024

(* The server sees no GRAQL_* setting from the caller's environment, so
   fault injection, tracing or logging knobs cannot leak into a run. *)
let server_env ~durable =
  let inherited =
    List.filter
      (fun kv -> not (String.starts_with ~prefix:"GRAQL_" kv))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list
    ((if durable then
        [ Printf.sprintf "GRAQL_CHECKPOINT_BYTES=%d" checkpoint_bytes ]
      else [])
    @ inherited)

let serving_port log =
  List.find_map
    (fun line ->
      try Scanf.sscanf line "serving on %_[^:]:%d" Option.some
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (String.split_on_char '\n' log)

let spawn_server ~exe ~work ~durable tag =
  let log = Filename.concat work.root (tag ^ ".log") in
  let data_dir =
    if durable then Some (Filename.concat work.root (tag ^ "-data")) else None
  in
  let args =
    [ "serve"; "--port"; "0"; "--user"; "admin:admin"; "--user"; "analyst:analyst" ]
    @ match data_dir with Some d -> [ "--wal"; "--data-dir"; d ] | None -> []
  in
  let pid = spawn exe args ~env:(server_env ~durable) ~out:log in
  let deadline = now () +. 30.0 in
  let rec await () =
    match serving_port (read_file log) with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            forget pid;
            failf "graql serve exited during start-up:\n%s" (read_file log));
        if now () > deadline then failf "graql serve did not start within 30 s";
        Unix.sleepf 0.001;
        await ()
  in
  { pid; port = await (); data_dir }

(* A memory figure of a live process (VmRSS, VmHWM), from /proc. *)
let status_mb pid field =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_map
      (fun line ->
        try Scanf.sscanf line "%s@: %d kB" (fun f kb -> if f = field then Some kb else None)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failf "no %s line in /proc/%d/status" field pid

(* SIGTERM drains the server; a server that has not exited after 10 s is
   killed and the run fails. *)
let stop_server s =
  if not (terminate s.pid) then
    failf "graql serve did not drain within 10 s of SIGTERM"

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* Benchmark machines are often VMs whose cores are shared: on a 2-vCPU
   Xeon VM the same single-threaded loop ran 20-25% slower for tens of
   seconds at a time, which no window length averages out. A calibration process therefore runs a
   fixed burst of work every [cal_period_s] (a few percent of one core)
   alongside the whole run and logs the CPU time each burst took.
   Timing metrics are reported at the reference speed [cal_ref_speed]:
   a time measured over an interval is scaled by (speed during the
   interval / reference speed), a rate by the inverse. The raw values
   go to stderr. *)

let cal_period_s = 0.025
let cal_iters = 40_000

(* Random read-modify-writes over an 8 MiB table: cache misses and
   integer work, like a query's. *)
let cal_burst table x0 =
  let x = ref x0 in
  let mask = Array.length table - 1 in
  for _ = 1 to cal_iters do
    x := ((!x * 0x5DEECE66D) + 11) land 0xFFFF_FFFF_FFFF;
    let i = (!x lsr 17) land mask in
    table.(i) <- table.(i) + (!x land 7)
  done;
  !x

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The calibration process: one "wall cpu" line per burst until it is
   terminated (or after [watchdog_s], should its parent vanish). *)
let calibrate ~watchdog_s file =
  let oc = open_out file in
  let table = Array.make (1 lsl 20) 0 in
  let stop = now () +. float_of_int watchdog_s in
  let rec loop x =
    if now () < stop then begin
      let w0 = now () and c0 = cpu_seconds () in
      let x = cal_burst table x in
      Printf.fprintf oc "%.6f %.9f\n%!" w0 (cpu_seconds () -. c0);
      Unix.sleepf cal_period_s;
      loop x
    end
  in
  loop 1

(* Bursts per CPU second on an uncontended moment of a 2-vCPU Xeon VM;
   any constant would do, this one keeps reported values near raw
   ones there. *)
let cal_ref_speed = 1500.0

type calibration = { cal_pid : int; cal_log : string }

(* Returns once the first burst is logged, so every later interval has
   bursts around it. *)
let start_calibration work =
  let cal_log = Filename.concat work.root "calibration.log" in
  let pid =
    spawn Sys.executable_name [ "--calibrate"; cal_log ]
      ~env:(Unix.environment ()) ~out:(Filename.concat work.root "calibration.out")
  in
  let deadline = now () +. 10.0 in
  while not (Sys.file_exists cal_log && String.contains (read_file cal_log) '\n') do
    if now () > deadline then failf "the calibration process logged nothing in 10 s";
    Unix.sleepf 0.005
  done;
  { cal_pid = pid; cal_log }

let stop_calibration c =
  ignore (terminate c.cal_pid);
  List.filter_map
    (fun line ->
      try Scanf.sscanf line "%f %f" (fun w c -> Some (w, c))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (String.split_on_char '\n' (read_file c.cal_log))

(* Machine speed over the given (start, end) intervals relative to the
   reference: above 1 when the machine ran faster than the reference.
   Each interval is widened by one calibration period on both sides, so
   even a short one holds a burst. *)
let speed_factor bursts spans =
  let inside =
    List.filter
      (fun (w, _) ->
        List.exists
          (fun (t0, t1) -> w >= t0 -. cal_period_s && w < t1 +. cal_period_s)
          spans)
      bursts
  in
  let cpu = List.fold_left (fun a (_, c) -> a +. c) 0.0 inside in
  if inside = [] || cpu <= 0.0 then failf "no calibration bursts in a timed interval";
  float_of_int (List.length inside) /. cpu /. cal_ref_speed

(* ------------------------------------------------------------------ *)
(* Requests over the wire                                              *)

let reply_failures = function
  | Client.Ok { outcomes; _ } ->
      List.length
        (List.filter (fun o -> o.Proto.ro_kind = Proto.K_failed) outcomes)
  | Client.Shed _ | Client.Failed _ | Client.Closing _ -> 1

let describe = function
  | Client.Ok { outcomes; _ } ->
      String.concat "; "
        (List.filter_map
           (fun o ->
             if o.Proto.ro_kind = Proto.K_failed then Some o.Proto.ro_text
             else None)
           outcomes)
  | Client.Shed { reason; _ } -> "shed: " ^ reason
  | Client.Failed { msg; _ } -> msg
  | Client.Closing { msg } -> "closing: " ^ msg

let run_ok c what src =
  match Client.run c src with
  | Client.Ok { outcomes; _ } as r when reply_failures r = 0 -> outcomes
  | r -> failf "%s: %s" what (describe r)

let with_client port user f =
  let c = Client.connect ~port ~user () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* One cold load, as a user brings a server up: spawn [graql serve], run
   the DDL, ingest the CSVs over the wire, and wait for the first read. *)
let cold_load ~exe ~work ~durable ds tag =
  let t0 = now () in
  let srv = spawn_server ~exe ~work ~durable tag in
  with_client srv.port "admin" (fun c ->
      ignore (run_ok c "DDL" ds.ddl);
      ignore (run_ok c "ingest" (ingest_script ds work));
      ignore (run_ok c "first read" (first_read ds)));
  (srv, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Correctness, checked before anything is timed                       *)

let render = function
  | Graql.O_table t ->
      { Proto.ro_kind = Proto.K_table; ro_code = 0; ro_text = Table.to_display_string t }
  | Graql.O_subgraph sg ->
      { Proto.ro_kind = Proto.K_subgraph; ro_code = 0; ro_text = Graql.Subgraph.summary sg }
  | Graql.O_message m -> { Proto.ro_kind = Proto.K_message; ro_code = 0; ro_text = m }
  | Graql.O_failed e ->
      {
        Proto.ro_kind = Proto.K_failed;
        ro_code = Graql.Error.exit_code e;
        ro_text = Graql.Error.to_string e;
      }

let load_local ds work ~durable =
  let durability =
    if durable then Some (Session.Wal_dir (Filename.concat work.root "local-data"))
    else None
  in
  let s = Session.create ?durability ~checkpoint_bytes () in
  List.iter
    (function
      | _, Graql.O_failed e -> failf "in-process load: %s" (Graql.Error.to_string e)
      | _ -> ())
    (Session.run_script s (ds.ddl ^ "\n" ^ ingest_script ds work));
  ignore (Db.graph (Session.db s));
  s

(* The served result must render exactly as the same script run in
   process; the in-process outcomes are returned for the oracle checks. *)
let served_equals_local c session what src =
  let served = run_ok c what src in
  let local = List.map snd (Session.run_script session src) in
  if served <> List.map render local then
    failf "%s: the served result differs from the in-process result" what;
  local

let last_table what outcomes =
  match List.rev outcomes with
  | Graql.O_table t :: _ -> t
  | _ -> failf "%s: no result table" what

let column t name =
  List.init (Table.nrows t) (fun i ->
      Value.to_string (Table.get_by_name t ~row:i name))

let check_berlin c session ds =
  let seed = ds.seed and scale = ds.scale in
  let product = BRef.most_offered_product ~seed ~scale () in
  let max_price = 2000.0 in
  let run what q =
    last_table what
      (served_equals_local c session what
         (subst q [ ("Product1", lit product); ("MaxPrice", "2000.0") ]))
  in
  let t = run "Q2" BQ.q2 in
  let top =
    List.init (Table.nrows t) (fun i ->
        ( Value.to_string (Table.get t ~row:i ~col:0),
          Value.as_int (Table.get t ~row:i ~col:1) ))
  in
  let oracle = BRef.q2_oracle ~seed ~scale ~product () in
  let k = min 10 (List.length oracle) in
  if
    List.length top <> k
    || List.map snd top <> List.filteri (fun i _ -> i < k) (List.map snd oracle)
    || List.exists (fun (id, n) -> List.assoc_opt id oracle <> Some n) top
  then failf "Q2 differs from Berlin.Reference.q2_oracle";
  if column (run "bi6" BQ.bi6_similar_cheaper) "product"
     <> BRef.bi6_oracle ~seed ~scale ~product ~max_price ()
  then failf "bi6 differs from Berlin.Reference.bi6_oracle";
  if column (run "bi8" BQ.bi8_product_reach) "country"
     <> BRef.bi8_oracle ~seed ~scale ~product ()
  then failf "bi8 differs from Berlin.Reference.bi8_oracle"

(* Sorted distinct keys of a path's last slot, evaluated in process. *)
let endpoints db path =
  let res =
    Graql.Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Graql.Path_exec.Keep_all ~edges_needed:false (Ast.M_path path)
  in
  match res.Graql.Path_exec.comps with
  | [ comp ] ->
      let last = Array.length comp.Graql.Path_exec.slots - 1 in
      let u = res.Graql.Path_exec.universe in
      List.sort_uniq compare
        (Array.to_list
           (Array.map
              (fun row ->
                let cell = row.(last) in
                Graql.Vset.key_string (Graql.Pack.vset_of u cell) (Graql.Pack.id cell))
              comp.Graql.Path_exec.rows))
  | _ -> failf "expected one path component"

let check_snb c session ds =
  let seed = ds.seed and scale = ds.scale in
  let person = SRef.hub_person ~seed ~scale () in
  let comment, _ = SRef.deepest_comment ~seed ~scale () in
  let params = [ ("Person1", lit person); ("Comment1", lit comment) ] in
  List.iter
    (fun (what, q, path, oracle) ->
      ignore (served_equals_local c session what (subst q params));
      if endpoints (Session.db session) path <> oracle then
        failf "%s differs from Snb.Reference" what)
    [
      ( "knows_plus",
        SQ.q_knows_plus,
        SQ.path_knows_plus ~person,
        SRef.knows_plus ~seed ~scale ~person () );
      ( "knows_knows_plus",
        SQ.q_knows_knows_plus,
        SQ.path_knows_knows_plus ~person,
        SRef.knows_knows_plus ~seed ~scale ~person () );
      ( "thread_root",
        SQ.q_thread_root,
        SQ.path_thread_root ~comment,
        SRef.thread_root_posts ~seed ~scale ~comment () );
    ]

(* ------------------------------------------------------------------ *)
(* Load generation                                                     *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Closed-loop ingests of batches [0, n), each timed from send to reply
   except the first [probe_warmup], which pay down the garbage the load
   left behind. *)
let probe_warmup = 5

let ingest_probe srv ds work ~n lat tl =
  with_client srv.port "admin" (fun c ->
      for k = 0 to n + probe_warmup - 1 do
        let t0 = now () in
        tl.attempted <- tl.attempted + 1;
        if reply_failures (Client.run c (batch_stmt ds work k)) > 0 then
          tl.failed <- tl.failed + 1
        else if k >= probe_warmup then push lat ((now () -. t0) *. 1000.0)
      done)

(* Closed loop: the next statement goes out when the previous reply is
   in. Latency is the client's view, local parse and compile included;
   a statement counts if it completes inside the measured window. *)
let closed_loop ~port ~user ~next ~t_measure ~t_end =
  let lat = samples () and tl = tally () in
  with_client port user (fun c ->
      let rec loop () =
        let src = next () in
        let t0 = now () in
        if t0 < t_end then begin
          tl.attempted <- tl.attempted + 1;
          match Client.run c src with
          | reply ->
              let t1 = now () in
              if reply_failures reply > 0 then tl.failed <- tl.failed + 1
              else if t1 >= t_measure && t1 <= t_end then
                push lat ((t1 -. t0) *. 1000.0);
              loop ()
          | exception Graql.Error.Error e ->
              note "connection lost: %s" (Graql.Error.to_string e);
              tl.failed <- tl.failed + 1
        end
      in
      loop ());
  (lat, tl)

(* Open loop: request k is due at [t_start + k / rate] whether or not
   earlier ones are done, and is timed from when it was due. *)
let open_loop ~port ~user ~next ~rate ~t_start ~t_measure ~t_end =
  let lat = samples () and lag = samples () and tl = tally () in
  with_client port user (fun c ->
      let rec loop k =
        let due = t_start +. (float_of_int k /. rate) in
        if due < t_end then begin
          let wait = due -. now () in
          if wait > 0.0 then Unix.sleepf wait;
          let sent = now () in
          tl.attempted <- tl.attempted + 1;
          match Client.run c (next k) with
          | reply ->
              let t1 = now () in
              if reply_failures reply > 0 then tl.failed <- tl.failed + 1
              else if due >= t_measure then begin
                push lat ((t1 -. due) *. 1000.0);
                push lag ((sent -. due) *. 1000.0)
              end;
              loop (k + 1)
          | exception Graql.Error.Error e ->
              note "connection lost: %s" (Graql.Error.to_string e);
              tl.failed <- tl.failed + 1
        end
      in
      loop 0);
  (lat, lag, tl)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  on_berlin : bool;
  stream : dataset -> Random.State.t -> string;
  readers : int;  (** closed-loop analyst connections *)
  writer : bool;
      (** one open-loop admin connection ingesting during the window,
          against a durable server *)
  replay_reads : int;
      (** statements per reader in the traced replay; with a writer, a
          cap, as the reader stops when the writer's schedule ends *)
  events_per_stmt : int;  (** trace ring slots reserved per statement *)
}

let workloads =
  [
    {
      name = "point_reads";
      on_berlin = true;
      stream = point_stream;
      readers = 2;
      writer = false;
      replay_reads = 4000;
      events_per_stmt = 32;
    };
    {
      name = "bi_mix";
      on_berlin = true;
      stream = bi_stream;
      readers = 2;
      writer = false;
      replay_reads = 150;
      events_per_stmt = 256;
    };
    {
      name = "snb_paths";
      on_berlin = false;
      stream = snb_stream;
      readers = 2;
      writer = false;
      replay_reads = 60;
      events_per_stmt = 256;
    };
    {
      name = "ingest_reads";
      on_berlin = true;
      stream = point_stream;
      readers = 1;
      writer = true;
      replay_reads = 40000;
      events_per_stmt = 32;
    };
  ]

let ingest_rate = 20.0
let set_up_loads = 5

type sizes = {
  berlin_scale : int;
  snb_scale : int;
  warmup_s : float;
  probe_batches : int;
      (** closed-loop ingests on the set-up servers that do not serve the
          window, on workloads without a writer; 400 leave twenty
          samples above p95 *)
  replay_div : int;  (** divides the replay's statement counts *)
  replay_batches : int;  (** open-loop ingests in the ingest_reads replay *)
}

let full_sizes =
  {
    berlin_scale = 32;
    snb_scale = 50;
    warmup_s = 2.0;
    probe_batches = 400;
    replay_div = 1;
    replay_batches = 30;
  }

let smoke_sizes =
  {
    berlin_scale = 2;
    snb_scale = 4;
    warmup_s = 0.25;
    probe_batches = 20;
    replay_div = 20;
    replay_batches = 4;
  }

(* ------------------------------------------------------------------ *)
(* The traced in-process replay                                        *)

(* Layers in the order the client and [Serve.execute] run them; each is
   one public function of the module the name points at. *)
let layers =
  [
    "lang.parse";
    "ir.encode";
    "ir.decode";
    "gems.authorize";
    "engine.lock_wait";
    "engine.meta";
    "analysis.typecheck";
    "engine.exec.select_graph";
    "engine.exec.select_table";
    "engine.exec.ingest";
    "graph.rebuild";
    "gems.checkpoint";
    "storage.render";
    "gems.proto";
  ]

let bench_cat = "bench"
let span name f = Trace.with_span ~cat:bench_cat name f

let read_only_stmt = function
  | Ast.Select_graph { sg_into = Ast.Into_nothing; _ }
  | Ast.Select_table { st_into = Ast.Into_nothing; _ } ->
      true
  | _ -> false

let exec_layer = function
  | Ast.Select_graph _ -> "engine.exec.select_graph"
  | Ast.Select_table _ -> "engine.exec.select_table"
  | Ast.Ingest _ -> "engine.exec.ingest"
  | stmt -> failf "the replay does not expect %s statements" (Ast.stmt_kind stmt)

let rows_of = function
  | Graql.O_table t -> Table.nrows t
  | Graql.O_subgraph sg -> Graql.Subgraph.total_vertices sg
  | Graql.O_message _ | Graql.O_failed _ -> 0

(* One request through the layers [Serve.execute] and the client run,
   in their order, each call under a span opened here. Returns (result
   rows, failed outcomes). *)
let replay_request session ~analyst src =
  let db = Session.db session in
  let trace = if Trace.is_armed () then Trace.new_trace_id () else "" in
  Trace.with_trace trace @@ fun () ->
  span "stmt" @@ fun () ->
  let ast = span "lang.parse" (fun () -> Graql.Parser.parse_script src) in
  let blob = span "ir.encode" (fun () -> Graql.Ir.encode_script ast) in
  let blob =
    span "gems.proto" (fun () ->
        match
          Proto.decode_client
            (Proto.encode_client
               (Proto.C_stmt
                  { id = 1; deadline_ms = 0; ir = blob; trace = ""; parent_span = 0 }))
        with
        | Proto.C_stmt { ir; _ } -> ir
        | _ -> failf "request frame did not round-trip")
  in
  let ast = span "ir.decode" (fun () -> Graql.Ir.decode_script blob) in
  if analyst then
    span "gems.authorize" (fun () ->
        if List.exists Graql.Server.writes_data ast then
          failf "an analyst statement writes data");
  let exec () =
    let meta = span "engine.meta" (fun () -> Db.meta db) in
    span "analysis.typecheck" (fun () ->
        if Graql.Diag.has_errors (Graql.Typecheck.check_script ~params:[] meta ast)
        then failf "replayed statement fails the type check");
    List.concat_map
      (fun stmt ->
        span (exec_layer stmt) (fun () ->
            Graql.Script_exec.exec_script ~parallel:false db [ stmt ]))
      ast
  in
  let after_lock f =
    let sp = Trace.begin_span ~cat:bench_cat "engine.lock_wait" in
    fun () ->
      Trace.end_span sp;
      f ()
  in
  let results =
    if List.for_all read_only_stmt ast then snd (Db.read_locked db (after_lock exec))
    else
      Db.write_locked db
        (after_lock (fun () ->
             let r = exec () in
             span "graph.rebuild" (fun () -> try ignore (Db.graph db) with _ -> ());
             span "gems.checkpoint" (fun () -> Session.maybe_checkpoint session);
             r))
  in
  let outcomes = List.map (fun (_, o) -> span "storage.render" (fun () -> render o)) results in
  span "gems.proto" (fun () ->
      ignore
        (Proto.decode_server
           (Proto.encode_server
              (Proto.S_result { id = 1; epoch = 0; wal_records = 0; outcomes }))));
  List.fold_left
    (fun (rows, bad) (_, o) ->
      (rows + rows_of o, bad + match o with Graql.O_failed _ -> 1 | _ -> 0))
    (0, 0) results

type replay_run = {
  wall_us : samples;  (** per-request wall time, as the replay saw it *)
  mutable requests : int;
  mutable rows : int;
  mutable bad : int;
}

let replay_once session ds work w ~reads ~batches ~first_batch =
  let run = { wall_us = samples (); requests = 0; rows = 0; bad = 0 } in
  let mu = Mutex.create () in
  let request ~analyst src =
    let t0 = now () in
    let rows, bad = replay_request session ~analyst src in
    let dt = (now () -. t0) *. 1e6 in
    Mutex.protect mu (fun () ->
        push run.wall_us dt;
        run.requests <- run.requests + 1;
        run.rows <- run.rows + rows;
        run.bad <- run.bad + bad)
  in
  let writer_done = Atomic.make (not w.writer) in
  let reader conn () =
    let rng = stream_rng ds conn in
    let rec go i =
      if i < reads && not (w.writer && Atomic.get writer_done) then begin
        request ~analyst:true (w.stream ds rng);
        go (i + 1)
      end
    in
    go 0
  in
  let writer () =
    let t0 = now () in
    for k = 0 to batches - 1 do
      let wait = t0 +. (float_of_int k /. ingest_rate) -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      request ~analyst:false (batch_stmt ds work (first_batch + k))
    done;
    Atomic.set writer_done true
  in
  let jobs =
    List.init w.readers reader @ if w.writer then [ writer ] else []
  in
  List.iter Domain.join (List.map Domain.spawn jobs);
  run

type layer_stats = { calls : int; self_us : float array }

(* Self time: a span's duration minus the part its child spans from this
   file cover. Spans recorded inside the program are not layers here. *)
let layer_self_times () =
  let evs = List.filter (fun e -> e.Trace.ev_cat = bench_cat) (Trace.events ()) in
  let child = Hashtbl.create 4096 in
  List.iter
    (fun e ->
      if e.Trace.ev_parent <> 0 then
        Hashtbl.replace child e.Trace.ev_parent
          (e.Trace.ev_dur_us
          +. Option.value ~default:0.0 (Hashtbl.find_opt child e.Trace.ev_parent)))
    evs;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let s =
        match Hashtbl.find_opt by_name e.Trace.ev_name with
        | Some s -> s
        | None ->
            let s = samples () in
            Hashtbl.replace by_name e.Trace.ev_name s;
            s
      in
      push s
        (e.Trace.ev_dur_us
        -. Option.value ~default:0.0 (Hashtbl.find_opt child e.Trace.ev_id)))
    evs;
  fun name ->
    match Hashtbl.find_opt by_name name with
    | Some s -> { calls = s.len; self_us = contents s }
    | None -> { calls = 0; self_us = [||] }

let counter_delta before after name =
  let v snap = Option.value ~default:0 (Metrics.find_counter snap name) in
  float_of_int (v after - v before)

let hist_delta before after name =
  let v snap =
    match List.assoc_opt name snap.Metrics.sn_histograms with
    | Some h -> (h.Metrics.h_count, h.Metrics.h_sum)
    | None -> (0, 0.0)
  in
  let c0, s0 = v before and c1, s1 = v after in
  (c1 - c0, s1 -. s0)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Returns the per-layer metrics, the requests replayed and their failed
   outcomes. [served_mean_us] is the untraced served mean latency that
   shares are taken of. *)
let traced_replay sizes session ds work w ~served_mean_us ~trace_out =
  let reads = max 1 (w.replay_reads / sizes.replay_div) in
  let batches = if w.writer then sizes.replay_batches else 0 in
  let replay ~first_batch ~reads ~batches =
    replay_once session ds work w ~reads ~batches ~first_batch
  in
  (* Warm up, then the untraced and the traced replay of the same
     streams; ingests use fresh batches each time so keys stay unique. *)
  ignore (replay ~first_batch:0 ~reads:(max 1 (reads / 4)) ~batches:(batches / 4));
  let untraced = replay ~first_batch:batches ~reads ~batches in
  let capacity = ((w.readers * reads) + batches) * w.events_per_stmt in
  Trace.set_capacity capacity;
  let before = Metrics.snapshot () in
  Trace.arm ();
  let traced =
    Fun.protect ~finally:Trace.disarm (fun () ->
        replay ~first_batch:(2 * batches) ~reads ~batches)
  in
  let after = Metrics.snapshot () in
  let dropped = Trace.dropped () in
  if dropped > 0 then
    failf "the trace ring (%d slots) dropped %d events" capacity dropped;
  Option.iter (fun path -> Trace.write_chrome_json ~role:"bench" path) trace_out;
  let n = float_of_int traced.requests in
  let self = layer_self_times () in
  let layer_metrics, attributed =
    List.fold_left
      (fun (acc, total) name ->
        let st = self name in
        let per_stmt = Array.fold_left ( +. ) 0.0 st.self_us /. n in
        ( acc
          @ [
              (name ^ ".calls", float_of_int st.calls /. n);
              (name ^ ".self_us_mean", mean st.self_us);
              (name ^ ".self_us_p99", percentile st.self_us 0.99);
              (name ^ ".share", ratio per_stmt served_mean_us);
            ],
          total +. per_stmt ))
      ([], 0.0) layers
  in
  let per_stmt name = counter_delta before after name /. n in
  let fsyncs, fsync_us = hist_delta before after "wal.fsync_us" in
  let rows = float_of_int traced.rows in
  let unattributed = served_mean_us -. attributed in
  let metrics =
    layer_metrics
    @ [
        ("unattributed.us_mean", unattributed);
        ("unattributed.share", ratio unattributed served_mean_us);
        ("path.seed_rows", per_stmt "path.seed_rows");
        ("path.step_rows", per_stmt "path.step_rows");
        ("rpq.visited_pairs", per_stmt "rpq.visited_pairs");
        ("table.scan_rows", per_stmt "table.scan_rows");
        ("table.join_rows", per_stmt "table.join_rows");
        ("engine.rows_out", rows /. n);
        ("wal.records", per_stmt "wal.records");
        ("wal.bytes", per_stmt "wal.bytes");
        ("wal.fsync_us_mean", ratio fsync_us (float_of_int fsyncs));
        ("wal.checkpoints", per_stmt "wal.checkpoints");
        ("path.yield", ratio rows (counter_delta before after "path.step_rows"));
        ("table.yield", ratio rows (counter_delta before after "table.scan_rows"));
        ( "trace.overhead",
          ratio (mean (contents traced.wall_us)) (mean (contents untraced.wall_us)) );
        ("trace.dropped", float_of_int dropped);
        ("samples", n);
      ]
  in
  (metrics, untraced.requests + traced.requests, untraced.bad + traced.bad)

(* ------------------------------------------------------------------ *)
(* One run of one workload                                             *)

type outcome = {
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** empty unless traced *)
}

(* Progress goes to stderr, one line per phase with its wall time. *)
let phase w name f =
  let t0 = now () in
  let r = f () in
  note "%s: %s %.2f s" w.name name (now () -. t0);
  r

let run_workload ~exe ~sizes ~run ~trace ~trace_out w ~seed ~seconds =
  let phase name f = phase w name f in
  let ds =
    phase "generate" (fun () ->
        if w.on_berlin then berlin ~seed ~scale:sizes.berlin_scale
        else snb ~seed ~scale:sizes.snb_scale)
  in
  let work = work_dir ~run in
  Fun.protect
    ~finally:(fun () ->
      kill_children ();
      remove_tree work.root;
      try Unix.rmdir (Filename.dirname work.root) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let window_batches =
    int_of_float (Float.ceil ((sizes.warmup_s +. seconds) *. ingest_rate)) + 1
  in
  let batches =
    List.fold_left max 0
      [
        window_batches;
        (sizes.probe_batches / (set_up_loads - 1)) + probe_warmup;
        3 * sizes.replay_batches;
      ]
  in
  write_inputs ds work ~batches;
  let session =
    phase "in-process load" (fun () -> load_local ds work ~durable:w.writer)
  in
  let cal = start_calibration work in
  (* Set-up: [set_up_loads] cold loads, each timed until its first read
     returns. The last one serves the window. Workloads without a writer
     time ingests on the others before stopping them, so every workload
     reports ingest latency, taken over several fresh servers. *)
  let probe_per_load =
    if w.writer then 0 else sizes.probe_batches / (set_up_loads - 1)
  in
  let probe_lat = samples () and probe_tally = tally () in
  let load_spans = ref [] and probe_spans = ref [] in
  let loads =
    phase "set-up" @@ fun () ->
    List.init set_up_loads (fun i ->
        let t0 = now () in
        let srv, dt =
          cold_load ~exe ~work ~durable:w.writer ds (Printf.sprintf "load%d" i)
        in
        load_spans := (t0, now ()) :: !load_spans;
        let hwm = status_mb srv.pid "VmHWM" in
        if i < set_up_loads - 1 then begin
          let t1 = now () in
          ingest_probe srv ds work ~n:probe_per_load probe_lat probe_tally;
          probe_spans := (t1, now ()) :: !probe_spans;
          stop_server srv
        end;
        (srv, dt, hwm))
  in
  let srv, _, _ = List.nth loads (set_up_loads - 1) in
  let setup_raw = percentile (Array.of_list (List.map (fun (_, dt, _) -> dt) loads)) 0.5 in
  let load_hwm = percentile (Array.of_list (List.map (fun (_, _, m) -> m) loads)) 0.5 in
  phase "checks" (fun () ->
      with_client srv.port "analyst" (fun c ->
          if w.on_berlin then check_berlin c session ds
          else check_snb c session ds));
  let checks = { attempted = 3; failed = 0 } in
  (* The measured window. *)
  let t_start = now () in
  let t_measure = t_start +. sizes.warmup_s in
  let t_end = t_measure +. seconds in
  let readers =
    List.init w.readers (fun conn ->
        Domain.spawn (fun () ->
            let rng = stream_rng ds conn in
            closed_loop ~port:srv.port ~user:"analyst"
              ~next:(fun () -> w.stream ds rng)
              ~t_measure ~t_end))
  in
  let writer =
    if w.writer then
      Some
        (Domain.spawn (fun () ->
             open_loop ~port:srv.port ~user:"admin"
               ~next:(batch_stmt ds work) ~rate:ingest_rate ~t_start ~t_measure
               ~t_end))
    else None
  in
  let window_rss = samples () in
  let read_results, writer_result =
    phase "window" (fun () ->
        while now () < t_end do
          Unix.sleepf 0.1;
          if now () >= t_measure then push window_rss (status_mb srv.pid "VmRSS")
        done;
        let r = List.map Domain.join readers in
        (r, Option.map Domain.join writer))
  in
  let reads = Array.concat (List.map (fun (lat, _) -> contents lat) read_results) in
  let ingest_lat, lag, ingest_tally =
    match writer_result with
    | Some r -> r
    | None -> (probe_lat, samples (), probe_tally)
  in
  let ingests = contents ingest_lat in
  stop_server srv;
  let bursts = stop_calibration cal in
  let f_setup = speed_factor bursts !load_spans in
  let f_window = speed_factor bursts [ (t_measure, t_end) ] in
  let f_ingest = if w.writer then f_window else speed_factor bursts !probe_spans in
  let throughput = float_of_int (Array.length reads) /. seconds in
  note
    "%s: raw setup_s %.4f, throughput %.1f stmt/s, stmt p50 %.4f ms, ingest \
     p50 %.3f ms; machine speed set-up %.3f, window %.3f, ingest %.3f"
    w.name setup_raw throughput (percentile reads 0.5) (percentile ingests 0.5)
    f_setup f_window f_ingest;
  let ingested_batches = ingest_tally.attempted - ingest_tally.failed in
  let stored =
    match srv.data_dir with
    | Some dir ->
        ratio
          (float_of_int (tree_bytes dir))
          (float_of_int
             (input_bytes ds
             + (ingested_batches * String.length (batch_csv ds 0))))
    | None -> 0.0
  in
  let tallies = checks :: ingest_tally :: List.map snd read_results in
  let served_failed = List.fold_left (fun a (t : tally) -> a + t.failed) 0 tallies in
  let served_attempted =
    List.fold_left (fun a (t : tally) -> a + t.attempted) 0 tallies
  in
  let end_to_end =
    [
      ("setup_s", setup_raw *. f_setup);
      ("throughput_sps", throughput /. f_window);
      ("stmt_p50_ms", percentile reads 0.5 *. f_window);
      ("stmt_p95_ms", percentile reads 0.95 *. f_window);
      ("ingest_p50_ms", percentile ingests 0.5 *. f_ingest);
      ("ingest_p95_ms", percentile ingests 0.95 *. f_ingest);
      ("server_rss_mb", load_hwm);
    ]
  in
  if not trace then
    { attempted = served_attempted; failed = served_failed; end_to_end; per_layer = [] }
  else begin
    let served = Array.append reads (if w.writer then ingests else [||]) in
    let per_layer, replayed, replay_failed =
      phase "replay" @@ fun () ->
      traced_replay sizes session ds work w
        ~served_mean_us:(mean served *. 1000.0)
        ~trace_out
    in
    let per_layer =
      per_layer
      @ [
          ("loadgen.lag_ms", mean (contents lag));
          ("server.window_rss_mb", percentile (contents window_rss) 0.5);
          ("storage.bytes_per_input_byte", stored);
        ]
    in
    Session.close session;
    {
      attempted = served_attempted + replayed;
      failed = served_failed + replay_failed;
      end_to_end;
      per_layer;
    }
  end

(* ------------------------------------------------------------------ *)
(* Metric declarations and output                                      *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("throughput_sps", "stmt/s");
    ("stmt_p50_ms", "ms");
    ("stmt_p95_ms", "ms");
    ("ingest_p50_ms", "ms");
    ("ingest_p95_ms", "ms");
    ("server_rss_mb", "MB");
  ]

let per_layer_unit name =
  let suffix s = String.ends_with ~suffix:s name in
  if suffix ".calls" then "calls/stmt"
  else if suffix "us_mean" || suffix "us_p99" then "us"
  else if suffix ".share" || suffix ".yield" || suffix ".overhead"
          || name = "storage.bytes_per_input_byte"
  then "ratio"
  else if name = "wal.bytes" then "bytes/stmt"
  else if name = "wal.records" || name = "wal.checkpoints" then "count/stmt"
  else if name = "loadgen.lag_ms" then "ms"
  else if name = "server.window_rss_mb" then "MB"
  else if name = "trace.dropped" || name = "samples" then "count"
  else "rows/stmt"

let unit_of name =
  match List.assoc_opt name end_to_end_units with
  | Some u -> u
  | None -> per_layer_unit name

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Graql.Json.quote name)
              (json_number v)
              (Graql.Json.quote (unit_of name)))
          metrics))

let shown ~trace o = if trace then o.per_layer else o.end_to_end

(* --repeat: median and quartiles of each metric over the runs. *)
let summarize name runs =
  Printf.printf "%s: %d run(s)\n" name (List.length runs);
  Printf.printf "  %-36s %-10s %14s %14s %14s %8s\n" "metric" "unit" "median" "q1" "q3"
    "iqr/med";
  let metrics = List.map fst (List.hd runs) in
  let medians =
    List.map
      (fun m ->
        let q1, med, q3 = quartiles (List.map (List.assoc m) runs) in
        Printf.printf "  %-36s %-10s %14.6g %14.6g %14.6g %8.4f\n" m (unit_of m) med q1 q3
          (ratio (q3 -. q1) (Float.abs med));
        (m, med))
      metrics
  in
  flush stdout;
  medians

(* ------------------------------------------------------------------ *)
(* Smoke mode: every workload, tiny sizes, traced, with the emitted
   metric names and units checked against BENCHMARK.json both ways.   *)

(* (name, unit) of each entry of a BENCHMARK.json list; "" when an
   entry has no unit (workloads). *)
let declared section =
  let doc = Graql.Json.parse_exn (read_file "BENCHMARK.json") in
  let field k it =
    Option.value ~default:"" (Option.bind (Graql.Json.member k it) Graql.Json.to_string_opt)
  in
  match Option.bind (Graql.Json.member section doc) Graql.Json.to_list with
  | Some items -> List.map (fun it -> (field "name" it, field "unit" it)) items
  | None -> failf "BENCHMARK.json has no %S list" section

let check_metrics what declared emitted =
  let emitted = List.map (fun (n, v) -> (n, unit_of n, v)) emitted in
  let missing =
    List.filter (fun d -> not (List.exists (fun (n, u, _) -> (n, u) = d) emitted)) declared
  in
  let extra = List.filter (fun (n, u, _) -> not (List.mem (n, u) declared)) emitted in
  let show l = String.concat ", " (List.map (fun (n, u) -> n ^ " [" ^ u ^ "]") l) in
  if missing <> [] || extra <> [] then
    failf "%s: declared but not emitted: %s; emitted but not declared: %s" what
      (show missing)
      (show (List.map (fun (n, u, _) -> (n, u)) extra));
  List.iter
    (fun (n, _, v) -> if not (Float.is_finite v) then failf "%s: %s is %f" what n v)
    emitted

let smoke ~exe =
  let e2e = declared "end_to_end" and layered = declared "per_layer" in
  if List.map fst (declared "workloads") <> List.map (fun w -> w.name) workloads then
    failf "BENCHMARK.json workloads differ from graql_bench's";
  let t0 = now () in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (i, w) ->
        let o =
          run_workload ~exe ~sizes:smoke_sizes ~run:i ~trace:true ~trace_out:None w
            ~seed:(42 + i) ~seconds:1.0
        in
        check_metrics (w.name ^ " end_to_end") e2e o.end_to_end;
        check_metrics (w.name ^ " per_layer") layered o.per_layer;
        note "smoke %s: ok (%d statements)" w.name o.attempted;
        (a + o.attempted, f + o.failed))
      (0, 0)
      (List.mapi (fun i w -> (i, w)) workloads)
  in
  if failed > 0 then failf "smoke: %d request(s) failed" failed;
  note "smoke: all workloads ok in %.1f s" (now () -. t0);
  print_endline (result_json ~correct:true ~attempted ~failed [])

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "usage: graql_bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \       [--server PATH] [--trace-out FILE] [--repeat N]\n\
  \   or: graql_bench.exe --smoke [--server PATH]"

(* A run must end within 180 s; stop well before that. *)
let watchdog_s = 170

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         kill_children ();
         prerr_endline "graql_bench: run exceeded its time limit";
         Unix._exit 3));
  at_exit kill_children;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse opts = function
    | [] -> opts
    | [ "--smoke" ] -> ("smoke", "1") :: opts
    | "--smoke" :: rest -> parse (("smoke", "1") :: opts) rest
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: opts) rest
    | _ -> prerr_endline usage; exit 2
  in
  let opts = parse [] args in
  let get name = List.assoc_opt name opts in
  let int_opt name default =
    match get name with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> prerr_endline usage; exit 2)
  in
  let exe = Option.value (get "server") ~default:"_build/default/bin/graql_cli.exe" in
  Option.iter
    (fun file ->
      calibrate ~watchdog_s file;
      exit 0)
    (get "calibrate");
  try
    if not (Sys.file_exists exe) then failf "no server binary at %s" exe;
    if get "smoke" <> None then begin
      ignore (Unix.alarm watchdog_s);
      smoke ~exe
    end
    else begin
      let w =
        match get "workload" with
        | Some name -> (
            match List.find_opt (fun w -> w.name = name) workloads with
            | Some w -> w
            | None -> failf "unknown workload %S" name)
        | None -> prerr_endline usage; exit 2
      in
      let seed = int_opt "seed" 42 in
      let seconds = int_opt "seconds" 15 in
      let trace = int_opt "trace" 0 = 1 in
      let repeat = max 1 (int_opt "repeat" 1) in
      if seconds < 1 then failf "--seconds must be at least 1";
      let runs =
        List.init repeat (fun i ->
            ignore (Unix.alarm watchdog_s);
            run_workload ~exe ~sizes:full_sizes ~run:i ~trace ~trace_out:(get "trace-out") w
              ~seed:(seed + i) ~seconds:(float_of_int seconds))
      in
      ignore (Unix.alarm 0);
      let attempted = List.fold_left (fun a o -> a + o.attempted) 0 runs in
      let failed = List.fold_left (fun a o -> a + o.failed) 0 runs in
      let metrics =
        match runs with
        | [ o ] -> shown ~trace o
        | _ -> summarize w.name (List.map (shown ~trace) runs)
      in
      print_endline (result_json ~correct:true ~attempted ~failed metrics)
    end
  with
  | Bench_failure msg ->
      kill_children ();
      prerr_endline ("graql_bench: " ^ msg);
      exit 1
  | Graql.Error.Error e ->
      kill_children ();
      prerr_endline ("graql_bench: " ^ Graql.Error.to_string e);
      exit 1
