(** Persistent fork-join pool over OCaml 5 domains.

    This is the "backend cluster" substrate: GEMS executes scans, joins and
    traversals shard-parallel across compute nodes; here the same roles are
    played by domains in one address space. The pool is created once and
    reused — spawning domains per operation would dominate query times.

    Cluster nodes can be slow, lossy, or dead, so the pool also carries the
    fault model: an injection hook fires before every scheduled task, tasks
    that die with {!Transient} are retried with capped exponential backoff,
    and an ambient {!Cancel} token is polled at every task boundary so
    deadlines cut running queries short. *)

type t

exception Transient of string
(** A recoverable simulated fault; the payload names the site
    ("scan:Offers/node3"). Raised by injection hooks — see
    {!Graql_gems.Fault} — and retried by the pool up to its attempt
    budget. *)

exception Fault_exhausted of { site : string; attempts : int }
(** A task's retry budget ran out: the site is effectively dead. Maps
    to [Graql_error.Exec_fault] upstream. *)

type fault_hook = label:string -> index:int -> attempt:int -> unit
(** Called before every attempt of every scheduled task: [label] is the
    ambient work label (see {!with_label}), [index] the task's position in
    its batch, [attempt] counts from 1. The hook simulates failures by
    raising {!Transient} and slow nodes by sleeping. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] starts [domains - 1] worker domains (the caller
    counts as one). When [?domains] is omitted the [GRAQL_DOMAINS]
    environment variable (a positive integer) decides, falling back to
    [Domain.recommended_domain_count ()] capped at 8. *)

val size : t -> int
(** Total parallelism including the calling domain. *)

val shutdown : t -> unit
(** Join all workers. The pool must not be used afterwards. *)

val default : unit -> t
(** Lazily-created process-wide pool. *)

val set_fault_hook : t -> fault_hook option -> unit
(** Install (or clear) the fault-injection hook. *)

val set_retry :
  ?attempts:int -> ?backoff_ms:float -> ?backoff_cap_ms:float -> t -> unit
(** Retry policy for {!Transient} failures: total attempts per task
    (default 4), initial backoff and backoff cap in milliseconds (defaults
    0.25 / 20). Backoff doubles per retry. *)

val fault_retries : t -> int
(** Cumulative count of transparently recovered task attempts — the
    "degraded but correct" signal surfaced per run by [Session]. *)

val set_cancel : t -> Cancel.t option -> unit
(** Install (or clear) the ambient cancellation token. Every subsequently
    scheduled task checks it before running (and between retry attempts),
    so in-flight parallel loops stop at the next chunk boundary. *)

val cancel_token : t -> Cancel.t option

val with_label : string -> (unit -> 'a) -> 'a
(** [with_label l f] runs [f] with ambient work label [l] on the calling
    domain. Labels are captured when tasks are submitted and passed to the
    fault hook, letting fault plans target work by statement or operator
    regardless of which worker executes it. *)

val current_label : unit -> string

val current_task_retries : unit -> int
(** Dispatch retries absorbed before the currently running pool task's
    body started (0 outside a pool task, or when dispatch succeeded
    first try). The query log reads this to classify a statement that
    only ran because its dispatch was retried as "degraded". *)

val run_tasks : t -> (unit -> unit) list -> unit
(** Run the tasks to completion, in parallel; re-raises the first exception
    observed (after all tasks finish) with its original backtrace, so a
    worker failure's origin survives the hop to the submitting domain. *)

val parallel_for : t -> ?chunk:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] applies [f] to every index in [lo, hi).
    [chunk] bounds scheduling overhead; default splits into ~4 chunks per
    worker. *)

val parallel_for_chunks :
  t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for_chunks pool ~lo ~hi f] invokes [f clo chi] on disjoint
    subranges covering [lo, hi); each call runs on one worker, letting the
    caller keep per-chunk accumulators. *)

val parallel_map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val chunk_ranges :
  t -> ?chunk:int -> lo:int -> hi:int -> unit -> (int * int) list
(** The disjoint [(lo, hi)] subranges a parallel loop over the range would
    use. Exposed so operators that keep per-chunk accumulators (the
    partitioned join, CSR construction) can size them up front. *)

val parallel_reduce :
  ?chunk:int -> t -> init:(unit -> 'acc) -> body:('acc -> int -> unit) ->
  merge:('acc -> 'acc -> 'acc) -> lo:int -> hi:int -> 'acc
(** Chunked reduction: each chunk folds into a private accumulator created
    by [init]; accumulators are merged in chunk order, so the result is
    deterministic whenever [merge] is associative. Passing an explicit
    [chunk] makes the decomposition (and therefore the merge tree of any
    non-associative float accumulation) independent of the pool size. *)
