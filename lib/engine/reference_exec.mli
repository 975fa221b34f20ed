(** Brute-force reference implementation of simple path queries.

    This is the baseline a CSR-indexed engine is measured against, and the
    oracle the optimized executor is property-tested against: no edge
    indices (adjacency by scanning the whole edge array), no planner, no
    projection/dedup, no parallelism. Supports named and [ ] steps in both
    directions, vertex/edge conditions, set/element-wise labels, and path
    regexes (evaluated as a naive fixpoint over full-edge-scan rounds) —
    the full single-path language minus subgraph seeds.

    Complexity is O(paths × edges) per step; use on small graphs only. *)

module Ast = Graql_lang.Ast
module Value = Graql_storage.Value

exception Unsupported of string

type result = {
  tuples : int array list;
      (** All match tuples, bag semantics. Each tuple holds the packed
          vertex cell of every vertex step, in lexical path order (edges
          contribute multiplicity but are not reported; a regex segment
          contributes one endpoint slot). *)
  edges : int list;
      (** The regex-traversed edges, packed edge cells ascending (the
          {!Path_exec.regex_edge_list} format). For each regex segment and
          each cell reaching it, an edge is traversed iff it lies on a
          complete body traversal of a walk the operator accepts: [*] and
          [+] any number of rounds, [{n}] exactly [n] rounds (walks that
          stop short are pruned, and [{0}] notes nothing). A traversal
          that dies mid-body notes nothing. *)
}

val run_path :
  db:Db.t -> params:(string -> Value.t option) -> Ast.path -> result
(** Raises {!Unsupported} on seeded steps and on labels inside regex
    bodies. *)
