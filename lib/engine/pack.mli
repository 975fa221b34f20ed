(** Typed entity handles for the path executor.

    Vertex/edge ids are dense per type; binding-relation cells must carry
    the type too (variant [ ] steps mix types in one column). A cell packs
    (type index, id) into one int: 23 bits of type, 40 bits of id. *)

module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset

type t = int

val pack : tidx:int -> id:int -> t
val tidx : t -> int
val id : t -> int

(** Per-query registry of the graph's vertex and edge types. *)
type universe = {
  vtypes : Vset.t array;
  vindex : (string, int) Hashtbl.t;  (** normalized name -> index *)
  etypes : Eset.t array;
  eindex : (string, int) Hashtbl.t;
}

val universe : Graql_graph.Graph_store.t -> universe
val vtype_index : universe -> string -> int option
val etype_index : universe -> string -> int option
val vset_of : universe -> t -> Vset.t
(** Vertex set of a packed vertex cell. *)

val eset_of : universe -> t -> Eset.t

val edge_bits :
  universe -> Graql_util.Bitset.t option array -> int -> Graql_util.Bitset.t
(** [edge_bits u sets t]: edge type [t]'s set in a per-edge-type array of
    edge-id sets, allocated over the type's ids on first use. *)
