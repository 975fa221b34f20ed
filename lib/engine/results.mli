(** Materialization of path-query results (Sec. II-C): named subgraphs and
    tables. *)

module Ast = Graql_lang.Ast
module Table = Graql_storage.Table
module Value = Graql_storage.Value

exception Result_error of Graql_lang.Loc.t * string

type bindings = Path_exec.relation Path_exec.outcome

val to_subgraph :
  name:string ->
  targets:Ast.target list ->
  loc:Graql_lang.Loc.t ->
  bindings ->
  Graql_graph.Subgraph.t
(** [select *] captures every matched vertex and edge (Fig. 11, resultsG);
    named targets capture only those steps' vertices (resultsBE) — the
    possibly-disconnected subgraph of Sec. II-C. Membership bitsets are
    set per type straight from the slot columns. *)

val to_table :
  name:string ->
  targets:Ast.target list ->
  params:(string -> Value.t option) ->
  loc:Graql_lang.Loc.t ->
  bindings ->
  Table.t
(** One output row per match tuple (multiplicity preserved — Berlin Q2
    depends on it). [select *] flattens all attributes of all entities on
    the path (Fig. 13); qualified targets project label/step attributes.

    Attribute targets over single-typed slots are gathered column-wise
    from the attribute tables (Varchar columns share the source
    dictionary and copy ids only) and carry ingest-equivalent statistics
    ({!Graql_storage.Column.track_stats}). Computed targets and slots
    that mix entity types are evaluated row by row. *)
