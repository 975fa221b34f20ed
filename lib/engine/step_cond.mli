(** Compiled step conditions: a GraQL condition on a vertex/edge step,
    lowered once per (step, candidate type) and then evaluated per
    candidate against the current binding row.

    Supported references: the candidate's own attributes (unqualified or
    qualified by the step's type name) and attributes of labeled earlier
    steps ([label.attr]) — Sec. II-B "attributes can be compared against
    constants, other attributes of the same step, and/or attributes from
    previous steps (if labeled)". *)

module Ast = Graql_lang.Ast
module Value = Graql_storage.Value

type slot_lookup = {
  find_slot : string -> (int * [ `V | `E ]) option;
      (** label name -> (column in the row, vertex or edge slot) *)
}

type t

val compile_vertex :
  params:(string -> Value.t option) ->
  universe:Pack.universe ->
  slots:slot_lookup ->
  self_names:string list ->
  vset:Graql_graph.Vset.t ->
  Ast.expr ->
  t
(** [self_names] — qualifiers that mean "this step" (type name, label). *)

val compile_edge :
  params:(string -> Value.t option) ->
  universe:Pack.universe ->
  slots:slot_lookup ->
  self_names:string list ->
  eset:Graql_graph.Eset.t ->
  Ast.expr ->
  t

val eval_vertex : t -> row:int array -> vertex:int -> bool
(** [vertex] is the raw (unpacked) candidate id. *)

val eval_edge : t -> row:int array -> edge:int -> bool

val reads_slots : t -> bool
(** Whether the condition reads earlier steps' bindings through [row];
    when it does not, callers may pass [[||]] instead of building one. *)
