(** Metadata-only view of the database: what the GEMS front-end catalog
    serves to static analysis (Sec. III-A — "the only requirement is
    access to the metadata describing the database's entities"). No row
    data lives here, just schemas, entity kinds and (optional) sizes. *)

module Schema = Graql_storage.Schema
module Dtype = Graql_storage.Dtype

type vertex_meta = {
  vm_name : string;
  vm_key : Schema.t;
  vm_attrs : Schema.t;  (** visible attributes: full source row if 1-1, else key *)
  vm_source : string;
  vm_size : int option;
}

type edge_meta = {
  em_name : string;
  em_src : string;  (** source vertex type *)
  em_dst : string;
  em_attrs : Schema.t option;
  em_size : int option;
}

type entity =
  | M_table of Schema.t * int option
  | M_vertex of vertex_meta
  | M_edge of edge_meta
  | M_subgraph of string list  (** vertex types known to appear in it *)

type t

val create : unit -> t

val copy : t -> t
(** An independent copy: adding to it leaves the original as it was. *)

val add_table : t -> string -> Schema.t -> unit
val add_vertex : t -> vertex_meta -> unit
val add_edge : t -> edge_meta -> unit
val add_subgraph : t -> string -> string list -> unit
val set_size : t -> string -> int -> unit
val find : t -> string -> entity option
val find_table : t -> string -> Schema.t option
val find_vertex : t -> string -> vertex_meta option
val find_edge : t -> string -> edge_meta option
val find_subgraph : t -> string -> string list option
val mem : t -> string -> bool
val names : t -> string list

val edges_between : t -> src:string -> dst:string -> edge_meta list
(** For variant-step checking: all edge types connecting the pair. *)
