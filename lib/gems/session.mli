(** The full GEMS pipeline for one client session (Sec. III):

    parse → static analysis against the catalog (front-end server) →
    compile to binary IR → "ship" to the backend (encode + decode) →
    dynamic planning and execution on the backend → results.

    Each statement's execution is timed by a {!Graql_obs.Trace} span
    (when tracing is armed) and the [script.stmt_us] histograms.
    Failures surface as typed
    {!Graql_engine.Graql_error.t} values: pipeline-level problems (parse,
    strict-mode analysis rejection, corrupt IR) raise
    [Graql_error.Error]; per-statement execution failures come back as
    [O_failed] outcomes so the rest of the script still runs. *)

module Ast = Graql_lang.Ast

type durability =
  | Off  (** in-memory only; state dies with the process *)
  | Wal_dir of string
      (** durable in this directory: recover whatever it holds on
          create, then write-ahead-log every mutating statement and
          fold the log into checkpoints (see {!Graql_engine.Wal},
          {!Graql_engine.Db_io.recover}, DESIGN.md §9) *)

type t

val create :
  ?pool:Graql_parallel.Domain_pool.t ->
  ?strict:bool ->
  ?faults:Fault.t ->
  ?durability:durability ->
  ?checkpoint_bytes:int ->
  unit ->
  t
(** [strict] (default true) refuses to execute scripts with static
    analysis errors (raising [Graql_error.Error (Analysis _)]). Warnings
    never block. [faults] installs a fault-injection plan on the session
    pool; when absent, {!Fault.of_env} is consulted so CI can inject
    faults into any run via [GRAQL_FAULT_SEED].

    [durability] (default [Off]): with [Wal_dir dir], creation first
    recovers the directory's checkpoint + WAL tail (raising
    [Graql_error.Error (Io _)] on genuine corruption), then logs every
    subsequent mutating statement before applying it. [checkpoint_bytes]
    sets the auto-checkpoint threshold (default: [GRAQL_CHECKPOINT_BYTES]
    or 4 MiB); the log is folded into a fresh snapshot after any script
    that leaves it larger than this. *)

val db : t -> Graql_engine.Db.t

val wal : t -> Graql_engine.Wal.t option
(** The live write-ahead log of a [Wal_dir] session ([None] otherwise
    or after {!close}) — what a replication primary
    ({!Repl.start_primary}) ships from. *)

val durability : t -> durability

val last_recovery : t -> Graql_engine.Db_io.recovery option
(** What [create] recovered, for [Wal_dir] sessions: checkpoint epoch,
    records replayed, torn bytes dropped. [None] for [Off] sessions. *)

val checkpoint : t -> bool
(** Fold the WAL into a fresh checkpoint snapshot now
    ({!Graql_engine.Db_io.checkpoint}). Returns [false] (and does
    nothing) for a session without durability. *)

val maybe_checkpoint : t -> unit
(** Checkpoint iff the WAL has outgrown the session's threshold. Callers
    owning their own concurrency discipline (the serve layer runs this
    under its exclusive write lock, between statements) use this instead
    of {!run_script}'s built-in between-script policy. *)

val close : t -> unit
(** Detach and close the WAL (no-op when [Off]). The directory can then
    be recovered by a new session. *)

val last_diagnostics : t -> Graql_analysis.Diag.t list

val ir_bytes_shipped : t -> int
(** Total IR bytes moved front-end → backend so far. *)

val set_faults : t -> Fault.t option -> unit
(** Install or clear the fault plan on the session's pool (no-op for a
    sequential session). *)

val recovered_faults : t -> int
(** Injected faults absorbed by pool-level retry so far — the
    "degraded but correct" signal. *)

val check : t -> string -> Graql_analysis.Diag.t list
(** Static analysis only — catalog metadata, no data access. *)

val run_script :
  ?loader:(string -> string) ->
  ?parallel:bool ->
  ?deadline_ms:int ->
  ?trace:bool ->
  t ->
  string ->
  (Ast.stmt * Graql_engine.Script_exec.outcome) list
(** The full pipeline on GraQL source text. [deadline_ms] bounds backend
    execution: when it expires, in-flight statements stop at the next
    cooperative cancellation point and report
    [O_failed (Timeout _)].
    [trace:true] arms {!Graql_obs.Trace} for the duration of this run
    (restoring the previous state afterwards). *)

val run_ir :
  ?loader:(string -> string) ->
  ?parallel:bool ->
  ?deadline_ms:int ->
  ?trace:bool ->
  t ->
  bytes ->
  (Ast.stmt * Graql_engine.Script_exec.outcome) list
(** Backend entry point: execute an already-compiled IR blob. Raises
    [Graql_error.Error (Io _)] on a corrupt blob. *)

val stats : t -> Graql_obs.Metrics.snapshot
(** Snapshot of the process-wide metrics registry (counters, gauges,
    histograms) — see {!Graql_obs.Metrics.snapshot}. Refreshes the
    [slo.*] percentile gauges first. *)

val stats_text : t -> string
(** The same registry in Prometheus text exposition format (SLO gauges
    refreshed first). *)

val stats_tables : ?full:bool -> t -> string
(** The registry as human-readable text tables — the payload of the
    repl's [stats;] and the [/stats] endpoint. By default the
    scheduling-variant series ([sched.*], [pool.*] and the
    WAL latency histograms) are hidden; [~full:true] — the repl's
    [stats full;] — shows everything. Ends with the per-class SLO
    percentile table when statement latency data exists. *)

val profile :
  ?loader:(string -> string) ->
  t ->
  string ->
  Graql_engine.Profile_exec.report list
(** EXPLAIN ANALYZE: parse and check [source] like {!run_script}, then
    execute each statement sequentially with profiling armed, returning
    per-statement reports of estimated vs. actual frontier sizes and
    per-operator wall times (render with
    {!Graql_engine.Profile_exec.render}). Side effects happen for
    real. *)

val catalog_rows : t -> string list list
(** Server catalog listing: kind, name, size — what clients can browse. *)

val degree_report : t -> string list list
(** Per edge type: name, out-degree and in-degree distribution summaries —
    the dynamic statistics of Sec. III-B the planner consults. Forces the
    graph views to be built. *)
