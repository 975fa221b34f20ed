(** Query results as (possibly disconnected) subgraphs (Sec. II-C):
    per-vertex-type sets of vertex ids and per-edge-type sets of edge ids
    of an underlying {!Graph_store}, each one {!Graql_util.Bitset} over
    its type's id domain at the time the set was made. A type's ids only
    grow as its tables are appended to, so readers test membership with
    {!Graql_util.Bitset.mem_padded}. *)

type t

val empty : string -> t
(** [empty name] — a named, empty subgraph. *)

val name : t -> string

val add_vertices : t -> vtype:string -> Graql_util.Bitset.t -> unit
(** Union the ids into the subgraph's set for that vertex type. The
    first set given for a type is kept as is, not copied: do not mutate
    it afterwards. Vertex and edge ids are stable as their type grows, so
    a set over a shorter domain than the type's existing set is padded
    (and the existing set grows to a longer one): an id beyond a set's
    length is not a member. *)

val add_vertex_list : t -> vtype:string -> int list -> size:int -> unit

val add_edges : t -> etype:string -> Graql_util.Bitset.t -> unit
(** {!add_vertices} for an edge type. An empty set does not add the
    type: {!etypes} lists only types holding an edge. *)

val vertices : t -> vtype:string -> Graql_util.Bitset.t option
val vertex_list : t -> vtype:string -> int list

val edges : t -> etype:string -> int list
(** Ascending edge ids of one type. *)

val vtypes : t -> string list
val etypes : t -> string list
val total_vertices : t -> int
val total_edges : t -> int

val union : name:string -> t -> t -> t
(** Or-composition of query results (Sec. II-B3). *)

val summary : t -> string
