(** Deterministic, seeded fault plans for the domain-pool executor.

    GEMS runs on cluster nodes that can be slow, lossy, or dead. A {!t}
    decides — as a pure function of (seed, site) — whether a given task
    attempt fails ({!kind.Fail}, raising [Domain_pool.Transient]) or runs
    slow ({!kind.Slow}). Because the decision never depends on scheduling
    order, a faulty run is exactly reproducible at any domain count, and
    the pool's retry layer can be asserted byte-identical against a
    fault-free run.

    Sites are addressed by the pool's ambient work label plus the task's
    batch index: ["stmt3:ingest:Offers"/2]. A plan plugs in as a
    {!Domain_pool} hook ({!hook}) that fires before every parallel chunk
    the engine schedules. *)

type kind =
  | Fail  (** the node refuses the task (recoverable via the pool's retry) *)
  | Slow of int  (** the node stalls for this many ms, then proceeds *)

type rule

type t

val rule :
  ?label:string ->
  ?index:int ->
  ?attempts:int ->
  ?prob:float ->
  kind ->
  rule
(** A rule fires when every given selector matches: [label] is a
    case-insensitive substring of the site's work label, [index] equals
    the task's batch index, the attempt number is [<= attempts] (default 1 =
    fail-once-then-recover; [-1] = always, a permanently dead site), and
    the site's seeded coin lands under [prob] (default 1.0 = every
    site). *)

val make : ?seed:int -> rule list -> t
(** First matching rule wins. *)

val fail_once : ?seed:int -> unit -> t
(** Every site fails its first attempt, then recovers — the canonical
    recovery smoke-plan. *)

val random : ?seed:int -> ?prob:float -> unit -> t
(** Each site independently fails its first attempt with probability
    [prob] (default 0.25), decided by the seed. *)

val hook : t -> Graql_parallel.Domain_pool.fault_hook
(** The plan as a pool injection hook: for one attempt at one site it
    raises [Domain_pool.Transient] for [Fail], sleeps for [Slow], and
    returns normally otherwise. *)

val of_env : unit -> t option
(** Build a {!random} plan from [GRAQL_FAULT_SEED] (and optional
    [GRAQL_FAULT_PROB]) — how CI exercises the recovery paths on every
    test run. [None] when the variable is unset or not an integer. *)
