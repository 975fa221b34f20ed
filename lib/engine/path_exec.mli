(** The path-query executor: forward frontier expansion over a binding
    relation (Sec. II-B semantics).

    A query's intermediate state is a relation whose columns ("slots") are
    the vertex/edge instances matched at tracked steps; each row is one
    partial match. It is stored column-wise. Stepping gathers the CSR
    neighbors of every row's current cell into (parent row, edge, vertex)
    candidate vectors, filters them through selection vectors (compiled
    step conditions, label and seed membership), and gathers the earlier
    columns by parent row.

    - [def X:] (set label, Eq. 6): a later reference filters candidates by
      membership in the set of X-values across live rows — forward-culled,
      exactly the σ(Vi)-culled set of Eq. 7.
    - [foreach x:] (element-wise, Eq. 8): a later reference requires the
      candidate to equal the row's own x binding.
    - Rows that cannot extend die; surviving rows at the end are full
      matches, which realizes the backward culling of Eq. 5 for every
      reported step set.
    - [and] composition joins operand relations on shared label columns;
      [or] composition unions compatible relations (and merges per-type
      sets for subgraph output).
    - Path regexes (Fig. 10) expand per-row via memoized BFS over the
      group body; [*] includes the trivial traversal, [+] at least one,
      [{n}] exactly n rounds. The endpoints of each start cell arrive as
      a ready-made column.

    The executor picks the evaluation direction using both edge indices
    (Sec. III-B): when a path carries no labels or seeds, it is run
    backwards if the tail's estimated seed cardinality is smaller. *)

module Ast = Graql_lang.Ast
module Value = Graql_storage.Value

type mode =
  | Keep_all  (** table output / [select *]: every step stays a column *)
  | Keep_minimal of string list
      (** subgraph output: keep labels + the named steps (normalized),
          project the rest away and dedupe rows (set semantics) *)

type slot = {
  s_kind : [ `V | `E ];
  s_label : string option;
  s_type_name : string option;  (** declared type, if the step was named *)
  s_step : int;
}

type relation = {
  layout : slot array;
  cols : Graql_util.Int_vec.t array;
      (** the binding relation, one column of packed cells per slot, all
          of one length: [cols.(s)] at row [i] is what slot [s] binds in
          match [i] *)
}

val nrows : relation -> int
(** Number of matches. *)

type component = { slots : slot array; rows : int array array }
(** The row view of a {!relation} (one array per match), for callers
    that inspect match tuples. *)

type 'c outcome = {
  comps : 'c list;  (** >1 only for [or] of incompatible layouts *)
  universe : Pack.universe;
  regex_edges : Graql_util.Bitset.t option array;
      (** edges traversed inside regexes: one id set per edge type
          (indexed like [universe.etypes]), allocated on its first edge *)
}

type result = component outcome

exception Exec_error of Graql_lang.Loc.t * string

val default_max_bytes : int
(** 400 MB: 50M binding cells of 8 bytes. *)

val run :
  db:Db.t ->
  params:(string -> Value.t option) ->
  mode:mode ->
  ?auto_reverse:bool ->
  ?edges_needed:bool ->
  ?max_bytes:int ->
  Ast.multipath ->
  relation outcome
(** Raises {!Exec_error} on unresolvable names (the static checker should
    reject these earlier) and when the binding relation outgrows
    [max_bytes] (default {!default_max_bytes}) — the paper's "large
    intermediate results" are surfaced as a diagnosable failure instead of
    memory exhaustion. [auto_reverse] defaults to [true]. [edges_needed]
    (default [true], the conservative choice) tells the planner whether
    the statement's output can observe regex-traversed edges; only
    [select ... into subgraph] with a [*] target can, and passing [false]
    both skips edge-noting work and lets the planner reverse regex
    paths. *)

val run_multipath :
  db:Db.t ->
  params:(string -> Value.t option) ->
  mode:mode ->
  ?auto_reverse:bool ->
  ?edges_needed:bool ->
  ?max_bytes:int ->
  Ast.multipath ->
  result
(** {!run}, with each relation transposed into its row view. *)

val regex_edge_list : _ outcome -> int list
(** The regex-traversed edges as packed edge cells, ascending. *)

(* ------------------------------------------------------------------ *)
(* Planned paths (shared with EXPLAIN)                                 *)

type xregex = {
  xr_body : (Ast.estep * Ast.vstep) list;
  xr_op : Ast.rx_op;
  xr_loc : Graql_lang.Loc.t;
  xr_reversed : bool;
  xr_exit : Ast.vstep option;
      (** reversed only: the forward pre-regex vertex, applied as an
          endpoint filter *)
}

type xstep = X_step of Ast.estep * Ast.vstep | X_regex of xregex

type path_plan = {
  px_head : Ast.vstep;
  px_steps : xstep list;
  px_reversed : bool;
}

val plan_path :
  db:Db.t ->
  params:(string -> Value.t option) ->
  ?auto_reverse:bool ->
  ?edges_needed:bool ->
  Ast.path ->
  path_plan
(** Direction choice plus the reversal rewrite, as one reusable planning
    step — the executor runs exactly this plan and EXPLAIN renders it, so
    the two can never disagree about orientation. *)

val chosen_direction :
  ?edges_needed:bool ->
  Ast.path ->
  db:Db.t ->
  params:(string -> Value.t option) ->
  [ `Forward | `Backward ]
(** Planner decision exposure, for tests and the planner-ablation bench. *)
