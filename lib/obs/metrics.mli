(** Process-wide metrics registry: named counters, gauges and log-scale
    histograms (DESIGN.md §10).

    Counters and histograms are domain-safe without contended atomics on
    the hot path: each domain owns a private cell per metric (reached
    through domain-local storage), and readers merge the cells. A counter
    increment is therefore a plain store into domain-owned memory; only
    {!snapshot} and {!to_prometheus} pay for the merge.

    Metric values read while other domains are actively recording may lag
    by a few updates; values read at a quiescent point (after
    [Domain_pool.run_tasks] has joined, which establishes the necessary
    happens-before edge) are exact.

    Naming convention: [layer.metric] — e.g. [path.step_rows],
    [pool.task_wait_us]. Counters under the [sched.*] prefix
    describe scheduling work (task counts, dispatch retries) and
    are expected to vary with the domain count; every other counter is
    semantic and must be invariant across domain counts (enforced by the
    metrics-consistency CI job). *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter
(** Find or create. Raises [Invalid_argument] if the name is already
    registered as a different metric kind. [help] becomes the metric's
    [# HELP] line in the Prometheus exposition (first writer wins). *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val counter_l : ?help:string -> string -> (string * string) list -> counter
(** Labeled counter series: [counter_l "serve.shed_total"
    [("reason", "queue_full")]] registers a distinct counter whose
    Prometheus line is [graql_serve_shed_total{reason="queue_full"}].
    Series of the same family share one [# TYPE]/[# HELP] header. In
    {!snapshot} the counter appears under its full key, labels
    included. *)

val gauge : ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val gauge_l : ?help:string -> string -> (string * string) list -> gauge
(** Labeled gauge series; see {!counter_l}. *)

val histogram : ?help:string -> string -> histogram
(** Log-scale histogram: bucket [i] counts observations in
    [(2^(i-1), 2^i]]; values ≤ 1 land in bucket 0. Suited to
    microsecond latencies (last bucket ≈ 6 days). *)

val observe : ?exemplar:string -> histogram -> float -> unit
(** Record one observation. A non-empty [exemplar] (a trace id) makes
    the observation a candidate for the histogram's exemplar slot: the
    slot keeps the slowest traced observation, except that a champion
    older than a minute is displaced by any fresh traced sample. *)

val exemplar : histogram -> (float * string) option
(** The stored exemplar, as (observed value, trace id). *)

val hist_sum : histogram -> float
val hist_count : histogram -> int
(** Single-histogram reads (sum of observed values / observation
    count) without the cost of a full {!snapshot} — the ledger's
    before/after delta primitives. *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;
      (** (inclusive upper bound, count in bucket), non-cumulative;
          zero buckets omitted *)
}

type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name *)
  sn_gauges : (string * float) list;
  sn_histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot

val find_counter : snapshot -> string -> int option

val to_prometheus : unit -> string
(** Prometheus text exposition format. Metric names are prefixed with
    [graql_] and sanitized ('.' and any other illegal character become
    '_'); histograms are emitted with cumulative [_bucket{le=...}]
    series plus [_sum] and [_count]. [# HELP] text and label values are
    escaped per the exposition format (backslash, double-quote,
    newline). A histogram with an {!exemplar} appends the OpenMetrics
    [# {trace_id="..."} value] tail to the bucket line containing the
    exemplar's value. The dump
    always ends with [graql_build_info] (version and OCaml release as
    labels, value 1) and [graql_uptime_seconds]. *)

val escape_help : string -> string
(** Exposition-format escaping for [# HELP] text: backslash and
    newline. *)

val escape_label_value : string -> string
(** Exposition-format escaping for label values: backslash,
    double-quote and newline. *)

val version : string
(** The version stamped into [graql_build_info]. *)

val uptime_seconds : unit -> float

val reset : unit -> unit
(** Zero every registered metric (cells stay registered). Test use only:
    callers must ensure no domain is concurrently recording. *)
