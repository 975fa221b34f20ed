(** Cluster capacity planning.

    The paper sizes GEMS deployments by aggregated DRAM: "for a cluster of
    large enough size or enough memory capacity per node, the overall
    capacity can be in the range of tens of terabytes". This module
    estimates a database's resident footprint (columnar tables, vertex
    views, both CSR edge index directions) and computes a shard placement
    over a homogeneous cluster with LPT (longest-processing-time) greedy
    balancing, reporting whether the database fits and how skewed the
    placement is. The placement is a planning report only: every
    statement runs on the domain-pool executor
    ({!Graql_parallel.Domain_pool}). *)

type item = {
  it_name : string;  (** "table:Products", "vertex:ProductVtx", "edges:type" *)
  it_shard : int;
  it_bytes : int;
}

type plan = {
  pl_nodes : int;
  pl_mem_per_node : int;
  pl_total_bytes : int;
  pl_node_bytes : int array;  (** load per node after placement *)
  pl_assignments : (item * int) list;  (** item, node — placement order *)
  pl_fits : bool;
  pl_skew : float;  (** max node load / mean node load; 1.0 = perfect *)
}

val database_items :
  ?shards_per_table:int -> Graql_engine.Db.t -> item list
(** Everything resident in memory, split into [shards_per_table] row-range
    shards per table (default 4). Graph views (vertex key indices and both
    CSR directions per edge type) are single items pinned by type, as in
    GEMS where an edge index lives whole on the node owning its partition.
    Forces the graph views to be built. *)

val plan :
  ?shards_per_table:int ->
  nodes:int ->
  mem_per_node:int ->
  Graql_engine.Db.t ->
  plan

val report : plan -> string
(** Human-readable placement table plus the fits/skew verdict. *)

val bytes_pretty : int -> string
