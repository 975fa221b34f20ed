(** GraQL: a query language for high-performance attributed graph
    databases — public API.

    Quickstart:
    {[
      let session = Graql.create_session () in
      let results = Graql.run session {|
        create table People(id varchar(10), name varchar(20), boss varchar(10))
        create vertex PersonVtx(id) from table People
        create edge reportsTo with vertices (PersonVtx as A, PersonVtx as B)
          where A.boss = B.id
        ingest table People people.csv
        select B.id from graph PersonVtx (id = 'alice') --reportsTo--> B: ...
      |} in
      ...
    ]}

    The modules below re-export the full stack, bottom-up:
    storage → relational algebra → graph views → language front-end →
    static analysis → binary IR → execution engine → GEMS session. *)

(* -- storage -------------------------------------------------------- *)
module Value = Graql_storage.Value
module Dtype = Graql_storage.Dtype
module Date = Graql_storage.Date
module Schema = Graql_storage.Schema
module Table = Graql_storage.Table
module Csv = Graql_storage.Csv

(* -- relational ----------------------------------------------------- *)
module Row_expr = Graql_relational.Row_expr
module Relop = Graql_relational.Relop
module Join = Graql_relational.Join
module Aggregate = Graql_relational.Aggregate

(* -- graph views ---------------------------------------------------- *)
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr
module Graph_store = Graql_graph.Graph_store
module Subgraph = Graql_graph.Subgraph
module Graph_builder = Graql_graph.Builder

(* -- language ------------------------------------------------------- *)
module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Lexer = Graql_lang.Lexer
module Parser = Graql_lang.Parser
module Pretty = Graql_lang.Pretty

(* -- analysis & IR -------------------------------------------------- *)
module Meta = Graql_analysis.Meta
module Diag = Graql_analysis.Diag
module Typecheck = Graql_analysis.Typecheck
module Ir = Graql_ir.Codec

(* -- engine --------------------------------------------------------- *)
module Db = Graql_engine.Db
module Script_exec = Graql_engine.Script_exec
module Path_exec = Graql_engine.Path_exec
module Pack = Graql_engine.Pack
module Rpq = Graql_engine.Rpq
module Ddl_exec = Graql_engine.Ddl_exec
module Explain = Graql_engine.Explain
module Table_plan = Graql_engine.Table_plan
module Profile_exec = Graql_engine.Profile_exec
module Reference_exec = Graql_engine.Reference_exec
module Db_io = Graql_engine.Db_io
module Wal = Graql_engine.Wal
module Error = Graql_engine.Graql_error

(* -- observability --------------------------------------------------- *)
module Obs = struct
  module Metrics = Graql_obs.Metrics
  module Trace = Graql_obs.Trace
  module Profile = Graql_obs.Profile
  module Slow_log = Graql_obs.Slow_log
  module Slo = Graql_obs.Slo
  module Query_log = Graql_obs.Query_log
  module Ledger = Graql_obs.Ledger
  module Redact = Graql_obs.Redact
  module Http = Graql_obs.Http
end

module Json = Graql_util.Json

(* -- GEMS ----------------------------------------------------------- *)
module Session = Graql_gems.Session
module Cluster = Graql_gems.Cluster
module Server = Graql_gems.Server
module Telemetry = Graql_gems.Telemetry
module Fault = Graql_gems.Fault
module Repl = Graql_gems.Repl
module Follower = Graql_gems.Follower
module Serve = Graql_gems.Serve
module Client = Graql_gems.Client
module Domain_pool = Graql_parallel.Domain_pool
module Cancel = Graql_parallel.Cancel

(* -- Berlin benchmark ----------------------------------------------- *)
module Berlin = struct
  module Schema_ddl = Graql_berlin.Berlin_schema
  module Gen = Graql_berlin.Berlin_gen
  module Queries = Graql_berlin.Berlin_queries
  module Reference = Graql_berlin.Berlin_reference
end

(* -- SNB deep-traversal workload ------------------------------------ *)
module Snb = struct
  module Schema_ddl = Graql_snb.Snb_schema
  module Gen = Graql_snb.Snb_gen
  module Queries = Graql_snb.Snb_queries
  module Reference = Graql_snb.Snb_reference
end

type outcome = Script_exec.outcome =
  | O_table of Table.t
  | O_subgraph of Subgraph.t
  | O_message of string
  | O_failed of Error.t

type durability = Session.durability = Off | Wal_dir of string

let create_session ?pool ?strict ?faults ?durability ?checkpoint_bytes () =
  Session.create ?pool ?strict ?faults ?durability ?checkpoint_bytes ()

let run ?loader ?parallel ?deadline_ms ?trace session source =
  Session.run_script ?loader ?parallel ?deadline_ms ?trace session source

let check = Session.check

let run_stmt ?loader session source =
  let stmt = Parser.parse_statement source in
  Script_exec.exec_stmt ?loader (Session.db session) stmt

let outcome_to_string = function
  | O_table t -> Table.to_display_string t
  | O_subgraph sg -> Subgraph.summary sg
  | O_message m -> m
  | O_failed err -> "error: " ^ Error.to_string err
