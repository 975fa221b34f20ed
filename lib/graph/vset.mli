(** A built vertex type: a *view* over a source table (Eq. 1).

    Vertex instances are dense ids [0, size). One-to-one vertex types
    (each instance is one source row) expose every source column as an
    attribute; many-to-one types (several rows collapse to one instance,
    e.g. [ProducerCountry] from distinct country codes) expose only the
    key columns — exactly the visibility rule in Sec. II-A. *)

module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema

type t

val name : t -> string
val size : t -> int
val key_schema : t -> Schema.t
val one_to_one : t -> bool
val source_table : t -> Table.t

val rows_seen : t -> int
(** Rows of the source table the view has keyed: the view is Eq. 1 over
    that prefix of the table. *)

val attr_schema : t -> Schema.t
(** Schema of the attributes visible on instances of this type. *)

val attr : t -> vertex:int -> col:int -> Value.t
(** Read attribute [col] (an index into [attr_schema]) of a vertex. *)

val attr_by_name : t -> vertex:int -> string -> Value.t
val key_values : t -> int -> Value.t array
val key_string : t -> int -> string
(** Canonical display of the key, single values unwrapped. *)

val find_by_key : t -> Value.t list -> int option
(** Vertex id for a key tuple. *)

val find_by_key_string : t -> string -> int option
(** Vertex id for a canonical key string (see {!key_of_values}). *)

val attr_row : t -> int -> int
(** Backing row in [attr_table] for a vertex (hot path for compiled
    conditions). *)

val attr_table : t -> Table.t

(** Construction — used by {!Builder}. *)

val empty : name:string -> key_schema:Schema.t -> source_table:Table.t -> t
(** The view over no rows of its source. *)

val extend :
  t ->
  keys:Value.t array array ->
  key_level:(string, int) Hashtbl.t ->
  attr_table:Table.t ->
  attr_rows:int array ->
  one_to_one:bool ->
  rows_seen:int ->
  t
(** A new view holding [t]'s vertices followed by vertices [size t + i]
    with key tuple [keys.(i)] and attribute row [attr_rows.(i)].
    [keys], [attr_rows] and [key_level] (the new key strings' ids) are
    taken over. The arrays are shared with [t] ({!Backing}); existing ids
    keep their keys, and [t] reads as it did. *)

val key_of_values : Value.t array -> string
(** The canonical hash key for a key tuple (shared with Builder). *)
