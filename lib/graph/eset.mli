(** A built edge type (Eq. 2): directed edges between two vertex types,
    with both forward and reverse CSR indices (Sec. III-B) and optional
    attributes drawn from the driving relation that created the edges. *)

module Table = Graql_storage.Table
module Value = Graql_storage.Value

type t

val name : t -> string
val src_type : t -> string
(** Name of the source vertex type. *)

val dst_type : t -> string
val size : t -> int
val src : t -> int -> int
(** Source vertex id of edge [e]. *)

val dst : t -> int -> int
val forward : t -> Csr.t
(** Index over source vertices: follow the edge lexically. *)

val reverse : t -> Csr.t
(** Index over destination vertices: traverse against edge direction. *)

val attr_table : t -> Table.t option
val attr_row : t -> int -> int
val attr : t -> edge:int -> col:int -> Value.t
(** Raises [Invalid_argument] when the edge type carries no attributes. *)

val attr_by_name : t -> edge:int -> string -> Value.t

(** {2 Construction — used by {!Builder}}

    An edge view is built by extending the view over no rows of its
    driving relation; maintenance extends it again when that relation
    grows. *)

val driving : t -> Table.t
(** The relation whose rows enumerate candidate edges. *)

val rows_seen : t -> int
(** Driving rows the view has turned into edges (or dropped). *)

val dropped_src : t -> int
(** Rows among those whose src key was not Null but named no vertex. Such
    a row can gain its edge when the src type grows. *)

val dropped_dst : t -> int
(** The same for the dst key. A row whose keys both missed counts in
    both. *)

val dedupe : t -> bool
(** Whether duplicate (src, dst) pairs collapse to their first edge. *)

val pair_key : src:int -> dst:int -> int
(** The key of a (src, dst) pair in a deduplicated view's pair set (ids
    below 2{^31}). *)

val has_pair : t -> int -> bool
(** Whether a deduplicated view holds an edge with the given pair key. *)

val empty :
  name:string ->
  src_type:string ->
  dst_type:string ->
  driving:Table.t ->
  keep_attrs:bool ->
  dedupe:bool ->
  t
(** The view over no driving rows. [keep_attrs] makes [driving] the
    attribute table. *)

val extend :
  ?pool:Graql_parallel.Domain_pool.t ->
  t ->
  n_src_vertices:int ->
  n_dst_vertices:int ->
  src:int array ->
  dst:int array ->
  attr_rows:int array ->
  pair_level:(int, int) Hashtbl.t ->
  rows_seen:int ->
  dropped_src:int ->
  dropped_dst:int ->
  t
(** A new view holding [t]'s edges followed by edges [size t + i] as
    [src.(i) -> dst.(i)], over endpoint types of the given sizes (no
    smaller than before). [src], [dst], [attr_rows] and [pair_level]
    are taken over. The edge arrays are shared with [t] ({!Backing}) and
    both CSRs are appended to ({!Csr.append}), on the pool when one is
    given; [t] reads as it did. *)
