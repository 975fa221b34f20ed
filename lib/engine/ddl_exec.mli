(** Execution of data-definition statements: create table / vertex / edge.

    Vertex and edge declarations are recorded as definitions; the actual
    views are built by {!build_graph}, installed as the {!Db} graph
    builder. Edge building implements Eq. 2 in full generality:

    - associated-table edges (Fig. 3 [type]): the assoc table drives edge
      creation and endpoint keys come from its columns;
    - join edges (Fig. 3 [producer], [subclass]): the source vertex's own
      table drives creation and the target key comes from one of its
      columns — no join materialization needed;
    - multi-way join edges (Fig. 4 [export]): the where clause references
      additional catalog tables, which are equi-joined left-deep into a
      driving relation; endpoint keys are sourced from linked columns and
      residual predicates filter the join. *)

module Ast = Graql_lang.Ast

exception Ddl_error of Graql_lang.Loc.t * string

val install : Db.t -> unit
(** Register {!build_graph} as the database's view builder. *)

val exec_create_table :
  Db.t -> name:string -> cols:Ast.col_decl list -> loc:Graql_lang.Loc.t -> unit

val exec_create_vertex : Db.t -> Db.vertex_def -> unit
val exec_create_edge : Db.t -> Db.edge_def -> unit

val build_graph : Db.t -> Graql_graph.Graph_store.t
(** Build declared views from current table contents (Eq. 1 and Eq. 2)
    as a new graph, starting from the build the last invalidation
    replaced ({!Db.last_built}). A view whose tables and parameters are
    unchanged is reused; one whose tables are the same objects and have
    only grown is extended with the appended rows; any other is built
    from row 0 (DESIGN.md §5). The fingerprints are recorded with
    {!Db.set_view_fingerprints}. Raises {!Ddl_error} when a definition
    cannot be realized. *)

val edge_deps : Db.t -> Db.edge_def -> string list
(** Normalized names of the tables an edge view reads. *)
