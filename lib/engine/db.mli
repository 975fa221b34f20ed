(** Backend database state: tables, graph views, result subgraphs, query
    parameters.

    Vertex/edge declarations are retained as *definitions*; built views are
    (re)generated from table data on demand. This implements the paper's
    ingest semantics — "data ingest triggers not only the population of
    rows in the table, but also the generation of associated vertex and
    edge instances derived from the table" — by invalidating the graph on
    ingest and, before the next graph query, extending the views over the
    grown table with the appended rows. *)

module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Ast = Graql_lang.Ast

type vertex_def = {
  vd_name : string;
  vd_key : string list;
  vd_from : string;
  vd_where : Ast.expr option;
}

type edge_def = {
  ed_name : string;
  ed_src : Ast.vertex_endpoint;
  ed_dst : Ast.vertex_endpoint;
  ed_from : string option;
  ed_where : Ast.expr option;
}

type t

val create : ?pool:Graql_parallel.Domain_pool.t -> unit -> t
val pool : t -> Graql_parallel.Domain_pool.t option

val wal : t -> Wal.t option
val set_wal : t -> Wal.t option -> unit
(** Attach (or detach) the write-ahead log. While attached, the executor
    logs every mutating statement to it — fsync'd — before applying it
    (see {!Wal} and DESIGN.md §9). Recovery must finish before the log
    is attached, or replayed statements would be logged twice. *)

val tables : t -> Graql_storage.Table_catalog.t
val add_table : t -> Table.t -> unit
val find_table : t -> string -> Table.t option
val find_table_exn : t -> string -> Table.t

val add_vertex_def : t -> vertex_def -> unit
val add_edge_def : t -> edge_def -> unit
val vertex_defs : t -> vertex_def list
val edge_defs : t -> edge_def list

val view_reads : t -> string -> bool
(** Whether some view reads the table: a vertex type's source, an edge's
    associated table, or a table an edge's where clause names. *)

val invalidate_graph : t -> unit
(** Drop the built graph; it rebuilds lazily on next access. The previous
    build is retained until the next build succeeds, so that views can be
    reused or extended rather than built again. *)

val last_built : t -> Graql_graph.Graph_store.t option
(** The build the current invalidation replaced, for view maintenance by
    the builder; [None] once a new build has succeeded. *)

(** A table a view reads, as it was when the view was built. *)
type dep = {
  dep_table : string;  (** normalized name *)
  dep_physical : Table.t;  (** the catalog's table object *)
  dep_rows : int;  (** its row count *)
}

type fingerprint = {
  fp_deps : dep list;
  fp_params : (string * Value.t option) list;
      (** the parameters the view's where clause reads, and their values *)
}

val view_fingerprints : t -> (string * fingerprint) list
(** Per view (normalized name): what it was built against. *)

val set_view_fingerprints : t -> (string * fingerprint) list -> unit

val where_params : Ast.expr option -> string list
(** The parameters a view's where clause reads, in first-use order. *)

val graph : t -> Graql_graph.Graph_store.t
(** The built graph; if invalidated, the builder makes a new one, reusing
    or extending the views of the one it replaces. Raises
    [Failure] if a definition cannot be built (the static checker should
    have caught it). The builder is injected by {!set_builder} (wired up
    by [Ddl_exec] to avoid a dependency cycle). *)

val set_builder : t -> (t -> Graql_graph.Graph_store.t) -> unit

val universe : t -> Pack.universe
(** The path executor's type registry over {!graph}, made on first use
    after each build and shared until the next one. *)

val add_subgraph : t -> Graql_graph.Subgraph.t -> unit
val find_subgraph : t -> string -> Graql_graph.Subgraph.t option
val subgraph_names : t -> string list

val set_param : t -> string -> Value.t -> unit
(** Also invalidates the graph when a view's where clause reads the
    parameter. *)

val find_param : t -> string -> Value.t option

val params : t -> (string * Value.t) list
(** All session parameters, sorted by name — exported with the database
    so a checkpoint preserves scripted [set] statements. *)

val register_result_table : t -> Table.t -> unit
(** [into table] result registration: replaces any previous table with the
    same name (results may be overwritten across runs). Replacing a table
    that a view reads invalidates the graph. *)

val meta : t -> Graql_analysis.Meta.t
(** Metadata snapshot of the current state, with sizes — what the GEMS
    front-end catalog would serve. The snapshot is built at most once per
    catalog change (every mutator above, and a graph build, bumps a
    generation stamp) and shared by every caller until the next one, so
    callers must not modify it: {!Graql_analysis.Typecheck} works on a
    copy. *)

val lock : t -> (unit -> 'a) -> 'a
(** Serialize result registration during parallel statement execution. *)

(** {2 Reader-writer epoch}

    The serve layer's concurrency discipline (DESIGN.md §14): read-only
    statements run concurrently under {!read_locked}; anything that
    mutates state runs exclusively under {!write_locked}. The epoch
    counts completed write sections — two reads that pinned the same
    epoch observed identical database state, which is what lets the
    overload chaos drill compare concurrent results against a
    sequential replay of the accepted log. *)

val read_locked : t -> (unit -> 'a) -> int * 'a
(** Run [f] holding the shared (reader) side; no writer runs
    concurrently. Returns the epoch pinned for [f]'s lifetime together
    with [f]'s result. Readers yield to waiting writers
    (writer-preferring), so a read flood cannot starve ingest. *)

val write_locked : t -> (unit -> 'a) -> 'a
(** Run [f] holding the exclusive (writer) side: no reader or other
    writer runs concurrently. The epoch is bumped on release, even if
    [f] raises (a failed write may have partially mutated state). *)

val epoch : t -> int
(** The current epoch: the number of completed {!write_locked}
    sections. *)
