(** Statement and script execution, including multi-statement dependence
    scheduling (Sec. III-B1): independent statements run in parallel on
    the domain pool; statements ordered by def/use of named entities (and
    by graph (in)validation) run in sequence. *)

module Ast = Graql_lang.Ast
module Table = Graql_storage.Table

type outcome =
  | O_table of Table.t
  | O_subgraph of Graql_graph.Subgraph.t
  | O_message of string
  | O_failed of Graql_error.t
      (** the statement failed (typed); the rest of the script still ran *)

exception Script_error of Graql_lang.Loc.t * string

val exec_stmt : ?loader:(string -> string) -> Db.t -> Ast.stmt -> outcome
(** Execute one statement against the database. [loader] maps an ingest
    file name to CSV text (defaults to reading the file system). *)

val dependence_edges :
  view_reads:(string -> bool) -> Ast.script -> (int * int) list
(** [(i, j)] with [i < j]: statement [j] must wait for statement [i].
    Conservative def/use analysis over entity names, parameters, and the
    derived graph. [view_reads name] tells whether a view defined before
    the script reads table [name] ({!Db.view_reads}); a select into such
    a table, or into one a view of the script reads, changes the
    graph. *)

val exec_script :
  ?loader:(string -> string) ->
  ?parallel:bool ->
  ?cancel:Graql_parallel.Cancel.t ->
  Db.t ->
  Ast.script ->
  (Ast.stmt * outcome) list
(** Run a whole script. With [parallel] (default true when the db has a
    pool), independent statements execute concurrently in dependence-DAG
    waves; outcomes are reported in statement order regardless.

    A failing statement yields [O_failed] and the remaining statements
    still execute (dependents of the failure report their own errors).
    [cancel] is checked before each statement and, via the pool's ambient
    token, at every parallel chunk boundary inside operators; once it
    fires, in-flight statements surface [O_failed (Timeout _)] and the
    rest are not started. Only out-of-memory / stack-overflow conditions
    abort the whole script. *)
