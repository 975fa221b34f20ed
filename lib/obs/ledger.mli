(** Per-statement resource ledger (DESIGN.md §16): before/after deltas
    over the process-wide registries, attributing to one statement the
    rows it scanned (table + path + RPQ counters), the words it
    allocated ([Gc.quick_stat]), its domain-pool queue wait vs. run
    time, and the pool dispatch retries it absorbed.

    Attribution is exact when statements execute sequentially;
    overlapping statements in a parallel wave may swap shares of the
    shared counters (the wave's totals are always right) — the same
    caveat the query log's retry counts carry. *)

type snapshot
(** The "before" reading. *)

val capturing : unit -> bool
(** True while at least one ledger bracket ({!start} without its
    {!finish}) is open anywhere in the process — the gate scan sites
    check before paying for a bytes estimate. One atomic load. *)

val note_scan_bytes : int -> unit
(** Record an estimated scanned-bytes amount (scan sites call this
    only when {!capturing} holds). *)

type t = {
  lg_rows_scanned : int;
  lg_bytes_scanned : int;  (** caller-supplied estimate; 0 = unknown *)
  lg_rows_out : int;
  lg_minor_words : float;
  lg_major_words : float;
  lg_pool_wait_us : float;
  lg_pool_run_us : float;
  lg_retries : int;
}

val start : unit -> snapshot

val finish : ?rows_out:int -> ?bytes_scanned:int -> snapshot -> t
(** Read the registries again and return the deltas. [rows_out] is a
    pass-through for what only the executor knows; [bytes_scanned]
    adds to the [table.scan_bytes] delta recorded by scan sites while
    the bracket was open. *)

val to_json : t -> string
(** One JSON object, embeddable as a query-log line's ["ledger"]
    field. *)

val summary : t -> string
(** One human-readable line for EXPLAIN ANALYZE and the slow log. *)
