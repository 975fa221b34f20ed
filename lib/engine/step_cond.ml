module Ast = Graql_lang.Ast
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema
module Table = Graql_storage.Table
module Row_expr = Graql_relational.Row_expr
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset

type slot_lookup = { find_slot : string -> (int * [ `V | `E ]) option }

(* Where does virtual column [i] of the compiled expression read from? *)
type source =
  | S_self of int  (** attribute index of the candidate entity *)
  | S_slot of { slot : int; kind : [ `V | `E ]; attr : string }
      (** attribute of a labeled earlier step; resolved by name at eval
          time because a variant-step label mixes types. *)

type self_accessor = {
  sa_get : int -> int -> Value.t;  (** entity id -> attr index -> value *)
  sa_schema : Schema.t;
  sa_what : string;
}

type t = {
  expr : Row_expr.t;
  sources : source array;
  self : self_accessor;
  universe : Pack.universe;
}

let norm = String.lowercase_ascii

let compile_generic ~params ~universe ~slots ~self_names ~(self : self_accessor)
    ast =
  let sources = ref [] in
  let nsources = ref 0 in
  let add src =
    sources := src :: !sources;
    incr nsources;
    !nsources - 1
  in
  let self_names = List.map norm self_names in
  let binder ~qual ~attr loc : Compile_expr.col_ref =
    let self_lookup () =
      match Schema.find self.sa_schema attr with
      | Some i ->
          {
            Compile_expr.cr_index = add (S_self i);
            cr_dtype = Schema.col_dtype self.sa_schema i;
          }
      | None ->
          raise
            (Compile_expr.Compile_error
               ( loc,
                 Printf.sprintf "%s has no attribute %S" self.sa_what attr ))
    in
    match qual with
    | None -> self_lookup ()
    | Some q when List.mem (norm q) self_names -> self_lookup ()
    | Some q -> (
        match slots.find_slot (norm q) with
        | Some (slot, kind) ->
            (* Type resolved per row at eval time; dtype statically unknown
               for variant labels — report from the first vertex type that
               has the attribute, for constant coercion. *)
            let dtype =
              let found = ref None in
              Array.iter
                (fun v ->
                  if !found = None then
                    match Schema.find (Vset.attr_schema v) attr with
                    | Some i -> found := Some (Schema.col_dtype (Vset.attr_schema v) i)
                    | None -> ())
                universe.Pack.vtypes;
              match !found with
              | Some t -> t
              | None -> Graql_storage.Dtype.Varchar 255
            in
            {
              Compile_expr.cr_index = add (S_slot { slot; kind; attr });
              cr_dtype = dtype;
            }
        | None ->
            raise
              (Compile_expr.Compile_error
                 ( loc,
                   Printf.sprintf
                     "unknown qualifier %S (expected this step or a label)" q ))
      )
  in
  let expr = Compile_expr.compile ~params binder ast in
  {
    expr;
    sources = Array.of_list (List.rev !sources);
    self;
    universe;
  }

let vertex_accessor vset =
  {
    sa_get = (fun v attr -> Vset.attr vset ~vertex:v ~col:attr);
    sa_schema = Vset.attr_schema vset;
    sa_what = Printf.sprintf "vertex type %s" (Vset.name vset);
  }

let edge_accessor eset =
  match Eset.attr_table eset with
  | Some table ->
      {
        sa_get = (fun e attr -> Table.get table ~row:(Eset.attr_row eset e) ~col:attr);
        sa_schema = Table.schema table;
        sa_what = Printf.sprintf "edge type %s" (Eset.name eset);
      }
  | None ->
      {
        sa_get = (fun _ _ -> Value.Null);
        sa_schema = Schema.make [];
        sa_what = Printf.sprintf "edge type %s (no attributes)" (Eset.name eset);
      }

let compile_vertex ~params ~universe ~slots ~self_names ~vset ast =
  compile_generic ~params ~universe ~slots ~self_names
    ~self:(vertex_accessor vset) ast

let compile_edge ~params ~universe ~slots ~self_names ~eset ast =
  compile_generic ~params ~universe ~slots ~self_names
    ~self:(edge_accessor eset) ast

let slot_attr universe row slot kind attr =
  let cell = row.(slot) in
  match kind with
  | `V -> (
      let vset = Pack.vset_of universe cell in
      match Schema.find (Vset.attr_schema vset) attr with
      | Some col -> Vset.attr vset ~vertex:(Pack.id cell) ~col
      | None -> Value.Null)
  | `E -> (
      let eset = Pack.eset_of universe cell in
      match Eset.attr_table eset with
      | Some table -> (
          match Schema.find (Table.schema table) attr with
          | Some col ->
              Table.get table ~row:(Eset.attr_row eset (Pack.id cell)) ~col
          | None -> Value.Null)
      | None -> Value.Null)

let eval t ~row ~entity =
  let get i =
    match t.sources.(i) with
    | S_self attr -> t.self.sa_get entity attr
    | S_slot { slot; kind; attr } -> slot_attr t.universe row slot kind attr
  in
  Row_expr.eval_bool get t.expr

let eval_vertex t ~row ~vertex = eval t ~row ~entity:vertex
let eval_edge t ~row ~edge = eval t ~row ~entity:edge

let reads_slots t =
  Array.exists (function S_slot _ -> true | S_self _ -> false) t.sources
