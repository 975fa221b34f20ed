(* Per-statement resource ledger (DESIGN.md §16): what one statement
   actually consumed, measured as before/after deltas over the
   process-wide registries — rows scanned (table, path and RPQ
   counters), GC allocation (Gc.quick_stat word deltas), pool queue
   wait vs. run time, and the pool's dispatch retries. The caller feeds in
   what only it knows: rows produced and a bytes-scanned estimate.

   Attribution caveat (same as the query log's retry counts): deltas
   over shared counters are exact when statements execute one at a
   time; overlapping statements in a parallel wave may swap shares.
   The totals across a wave are always right. *)

(* Handles resolved once; the names must match the recording sites
   (table_exec, path_exec, rpq, domain_pool). *)
let scan_counters =
  lazy
    (List.map
       (fun name -> Metrics.counter name)
       [
         "table.scan_rows"; "path.seed_rows"; "path.step_rows";
         "rpq.visited_pairs";
       ])

let c_sched_retries = lazy (Metrics.counter "sched.retries")
let c_scan_bytes = lazy (Metrics.counter "table.scan_bytes")
let h_pool_wait = lazy (Metrics.histogram "pool.task_wait_us")
let h_pool_run = lazy (Metrics.histogram "pool.task_run_us")

(* Bytes-scanned estimation ([Table.approx_bytes] at every scan) walks
   dictionary heaps — too costly to run unconditionally. Scan sites ask
   [capturing ()] (one atomic load) and only record bytes while at
   least one ledger bracket is open. *)
let active = Atomic.make 0
let capturing () = Atomic.get active > 0
let note_scan_bytes n = if n > 0 then Metrics.add (Lazy.force c_scan_bytes) n

type snapshot = {
  s_scans : int list;
  s_bytes : int;
  s_minor : float;
  s_major : float;
  s_wait_us : float;
  s_run_us : float;
  s_retries : int;
}

type t = {
  lg_rows_scanned : int;
  lg_bytes_scanned : int;  (** estimate; 0 = unknown *)
  lg_rows_out : int;
  lg_minor_words : float;
  lg_major_words : float;
  lg_pool_wait_us : float;
  lg_pool_run_us : float;
  lg_retries : int;
}

let start () =
  let gc = Gc.quick_stat () in
  Atomic.incr active;
  {
    s_scans = List.map Metrics.counter_value (Lazy.force scan_counters);
    s_bytes = Metrics.counter_value (Lazy.force c_scan_bytes);
    s_minor = gc.Gc.minor_words;
    s_major = gc.Gc.major_words;
    s_wait_us = Metrics.hist_sum (Lazy.force h_pool_wait);
    s_run_us = Metrics.hist_sum (Lazy.force h_pool_run);
    s_retries = Metrics.counter_value (Lazy.force c_sched_retries);
  }

let finish ?(rows_out = 0) ?(bytes_scanned = 0) s =
  let gc = Gc.quick_stat () in
  Atomic.decr active;
  let scans_now = List.map Metrics.counter_value (Lazy.force scan_counters) in
  let rows_scanned =
    List.fold_left2 (fun acc now before -> acc + max 0 (now - before)) 0
      scans_now s.s_scans
  in
  let bytes_delta =
    max 0 (Metrics.counter_value (Lazy.force c_scan_bytes) - s.s_bytes)
  in
  {
    lg_rows_scanned = rows_scanned;
    lg_bytes_scanned = bytes_scanned + bytes_delta;
    lg_rows_out = rows_out;
    lg_minor_words = Float.max 0.0 (gc.Gc.minor_words -. s.s_minor);
    lg_major_words = Float.max 0.0 (gc.Gc.major_words -. s.s_major);
    lg_pool_wait_us =
      Float.max 0.0 (Metrics.hist_sum (Lazy.force h_pool_wait) -. s.s_wait_us);
    lg_pool_run_us =
      Float.max 0.0 (Metrics.hist_sum (Lazy.force h_pool_run) -. s.s_run_us);
    lg_retries =
      max 0 (Metrics.counter_value (Lazy.force c_sched_retries) - s.s_retries);
  }

let to_json lg =
  Printf.sprintf
    "{\"rows_scanned\":%d,\"bytes_scanned\":%d,\"rows_out\":%d,\
     \"minor_words\":%.0f,\"major_words\":%.0f,\"pool_wait_us\":%.1f,\
     \"pool_run_us\":%.1f,\"retries\":%d}"
    lg.lg_rows_scanned lg.lg_bytes_scanned lg.lg_rows_out lg.lg_minor_words
    lg.lg_major_words lg.lg_pool_wait_us lg.lg_pool_run_us lg.lg_retries

(* One human line for EXPLAIN ANALYZE and the slow log. *)
let summary lg =
  let words w =
    if w >= 1e6 then Printf.sprintf "%.1fM" (w /. 1e6)
    else if w >= 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
    else Printf.sprintf "%.0f" w
  in
  let bytes =
    if lg.lg_bytes_scanned > 0 then
      Printf.sprintf " (~%d KiB)" ((lg.lg_bytes_scanned + 1023) / 1024)
    else ""
  in
  let faults =
    if lg.lg_retries > 0 then Printf.sprintf ", %d retries" lg.lg_retries
    else ""
  in
  Printf.sprintf
    "scanned %d rows%s, produced %d, gc %s minor + %s major words, pool \
     %.1f/%.1f ms wait/run%s"
    lg.lg_rows_scanned bytes lg.lg_rows_out (words lg.lg_minor_words)
    (words lg.lg_major_words)
    (lg.lg_pool_wait_us /. 1000.0)
    (lg.lg_pool_run_us /. 1000.0)
    faults
