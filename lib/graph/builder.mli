(** Constructing vertex and edge views from tables — the executable form
    of Eq. 1 (vertex creation) and Eq. 2 (edge creation). *)

module Table = Graql_storage.Table
module Schema = Graql_storage.Schema
module Row_expr = Graql_relational.Row_expr

val build_vertices :
  ?pool:Graql_parallel.Domain_pool.t ->
  name:string ->
  source:Table.t ->
  key_cols:int list ->
  ?cond:Row_expr.t ->
  unit ->
  Vset.t
(** Eq. 1: σ over the source, then one vertex per distinct key tuple.
    Rows with any Null key column produce no vertex. If every selected key
    tuple is unique, the type is one-to-one and all source columns become
    attributes; otherwise many-to-one with key-only attributes. This is
    {!extend_vertices} run from row 0 on the view over no rows. *)

val extend_vertices :
  ?pool:Graql_parallel.Domain_pool.t ->
  Vset.t ->
  key_cols:int list ->
  ?cond:Row_expr.t ->
  unit ->
  Vset.t option
(** Eq. 1 over the source rows the view has not keyed yet
    ([Vset.rows_seen] up to the table's length), giving a new view whose
    first [Vset.size] ids are the old view's. [key_cols] and [cond] must
    be those the view was built with. [None] when a new row repeats a key
    of a one-to-one view that already has vertices: the type turns
    many-to-one and must be built again from row 0. *)

val build_edges :
  ?pool:Graql_parallel.Domain_pool.t ->
  name:string ->
  src:Vset.t ->
  dst:Vset.t ->
  driving:Table.t ->
  src_key:int list ->
  dst_key:int list ->
  ?cond:Row_expr.t ->
  ?dedupe:bool ->
  ?keep_attrs:bool ->
  unit ->
  Eset.t
(** Eq. 2 in its general form. [driving] is the relation enumerating
    candidate edges — the associated table when a [from table] clause is
    present, or a join the caller prepared (vertex-table join, or the
    many-to-one multi-way join of Fig. 4/5). [src_key]/[dst_key] are the
    driving columns holding the endpoint keys; rows whose key does not
    identify an existing endpoint vertex are dropped. [dedupe] (default
    false) collapses duplicate (src, dst) pairs — the Fig. 5 many-to-one
    semantics. [keep_attrs] (default true) retains the driving relation as
    the edge attribute table. This is {!extend_edges} run from row 0 on
    the view over no rows. *)

val extend_edges :
  ?pool:Graql_parallel.Domain_pool.t ->
  Eset.t ->
  src:Vset.t ->
  dst:Vset.t ->
  src_key:int list ->
  dst_key:int list ->
  ?cond:Row_expr.t ->
  unit ->
  Eset.t
(** Eq. 2 over the driving rows the view has not seen yet, giving a new
    view whose first [Eset.size] edges are the old view's. [src] and
    [dst] must extend the endpoint views the old edges were built over
    (same ids for the old vertices); keys, condition and driving relation
    are those the view was built with. Old rows counted by
    [Eset.dropped] are not looked at again: when an endpoint has grown
    and that count is not zero, build the view again instead. *)
