(** Structured query log (DESIGN.md §11): one JSON line per executed
    statement, written to a file sink ([GRAQL_QUERY_LOG] / CLI
    [--query-log]) or an arbitrary sink installed by an embedder.

    Emission is engine-side ({!Graql_engine.Script_exec} builds one
    {!record} per statement outcome); this module owns the query-id
    counter, the ambient user (set per script by the GEMS server), and
    the serialization. When no sink is installed, {!log} is a single
    atomic load. *)

type outcome = Ok | Degraded | Failed | Timeout

val outcome_name : outcome -> string
(** "ok" | "degraded" | "failed" | "timeout". *)

type record = {
  r_id : int;  (** monotonically assigned, process-wide *)
  r_ts : float;  (** wall clock, seconds since the epoch *)
  r_user : string option;
  r_trace : string;  (** trace id; "" = untraced (field omitted) *)
  r_kind : string;  (** statement operation label, e.g. "ingest:Offers" *)
  r_ms : float;
  r_rows : int;
  r_outcome : outcome;
  r_retries : int;
  r_error : string option;  (** present iff failed/timeout *)
  r_ledger : Ledger.t option;
      (** per-statement resource accounting, when captured *)
}

val next_id : unit -> int
(** Allocate the next query id (also stamps [r_id] implicitly for
    callers that build records themselves). *)

val enabled : unit -> bool
(** True iff a sink is installed. The first call reads
    [GRAQL_QUERY_LOG] and opens that file (append mode) as the sink;
    an unopenable path prints a warning to stderr and disables the
    log. *)

val open_file : string -> unit
(** Install a file sink (append mode, line-buffered via flush per
    record). Replaces any previous sink; raises [Sys_error] on an
    unopenable path. *)

val set_sink : (string -> unit) option -> unit
(** Install an arbitrary sink receiving one JSON line (no trailing
    newline) per record; [None] disables and closes any open file. *)

val log : record -> unit
(** Serialize and emit, if enabled. Thread-safe. *)

val json_of_record : record -> string
(** The JSON object for one record, without a trailing newline. A
    non-empty [r_trace] becomes a ["trace_id"] field and a captured
    ledger a nested ["ledger"] object; statement and error text pass
    through {!Redact.statement} ([GRAQL_LOG_REDACT]). *)

val set_user : string option -> unit
(** Ambient user stamped into subsequent records (the GEMS server sets
    it around each connection's script). Process-global default; see
    {!set_domain_user} for concurrent servers. *)

val set_domain_user : string option option -> unit
(** Per-domain override of the ambient user: [Some u] makes this domain
    attribute records to [u] regardless of the global default; [None]
    restores the global default. The serve layer runs one connection per
    domain and sets this at authentication time. *)

val current_user : unit -> string option

val close : unit -> unit
(** Flush and close the file sink, if any; further records are
    dropped until a sink is installed again. *)
