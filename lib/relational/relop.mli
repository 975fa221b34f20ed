(** Core relational operators over {!Graql_storage.Table}: selection,
    projection, distinct, sorting, top-n (Table I of the paper). All
    operators materialize fresh tables; scans optionally run
    domain-parallel. *)

module Table = Graql_storage.Table
module Value = Graql_storage.Value

val vectorized : bool ref
(** When set (default), scans with compilable predicates evaluate through
    {!Fast_pred.compile_batch} (chunked masks over raw payloads) and row
    materialization gathers columns instead of boxing values. The
    row-at-a-time path remains as reference; results are byte-identical
    either way (property-tested). *)

val select_indices :
  ?pool:Graql_parallel.Domain_pool.t ->
  ?lo:int ->
  Table.t ->
  Row_expr.t ->
  int array
(** Row ids from [lo] (default 0) on satisfying the predicate, in row
    order (deterministic under any pool size). *)

val materialize : ?name:string -> Table.t -> int array -> Table.t
(** New table containing exactly the given rows, in order. *)

val select :
  ?pool:Graql_parallel.Domain_pool.t ->
  ?name:string -> Table.t -> Row_expr.t -> Table.t

val project : ?name:string -> Table.t -> int list -> Table.t
(** Keep the given columns, in the given order. *)

val project_named : ?name:string -> Table.t ->
  (string * Graql_storage.Dtype.t * Row_expr.t) list -> Table.t
(** Generalized projection: each output column is (name, type, expr); this
    is what [select a, b+1 as c from t] lowers to. *)

val distinct : ?name:string -> Table.t -> Table.t
(** Remove duplicate rows; keeps first occurrence order. *)

type dir = Asc | Desc

val order_by : ?name:string -> Table.t -> (int * dir) list -> Table.t
(** Stable multi-key sort; [Null] sorts first under [Asc]. *)

val top_n : ?name:string -> Table.t -> n:int -> keys:(int * dir) list -> Table.t
(** The [n] best rows under the ordering, sorted; heap-based O(rows log n).
    Ties beyond position [n] are broken by earliest row id (stable). *)

val limit : ?name:string -> Table.t -> int -> Table.t
val union_all : ?name:string -> Table.t -> Table.t -> Table.t
(** Requires equal schemas (up to names). *)
