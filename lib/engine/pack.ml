module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Graph_store = Graql_graph.Graph_store

type t = int

let id_bits = 40
let id_mask = (1 lsl id_bits) - 1

let pack ~tidx ~id =
  if id < 0 || id > id_mask then invalid_arg "Pack.pack: id out of range";
  (tidx lsl id_bits) lor id

let tidx t = t lsr id_bits
let id t = t land id_mask

type universe = {
  vtypes : Vset.t array;
  vindex : (string, int) Hashtbl.t;
  etypes : Eset.t array;
  eindex : (string, int) Hashtbl.t;
}

let norm = String.lowercase_ascii

let universe store =
  let vnames = Graph_store.vset_names store in
  let enames = Graph_store.eset_names store in
  let vtypes =
    Array.of_list (List.map (Graph_store.find_vset_exn store) vnames)
  in
  let etypes =
    Array.of_list (List.map (Graph_store.find_eset_exn store) enames)
  in
  let vindex = Hashtbl.create 16 and eindex = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace vindex (norm (Vset.name v)) i) vtypes;
  Array.iteri (fun i e -> Hashtbl.replace eindex (norm (Eset.name e)) i) etypes;
  { vtypes; vindex; etypes; eindex }

let vtype_index u name = Hashtbl.find_opt u.vindex (norm name)
let etype_index u name = Hashtbl.find_opt u.eindex (norm name)
let vset_of u cell = u.vtypes.(tidx cell)
let eset_of u cell = u.etypes.(tidx cell)

let edge_bits u sets t =
  match sets.(t) with
  | Some b -> b
  | None ->
      let b = Graql_util.Bitset.create (Eset.size u.etypes.(t)) in
      sets.(t) <- Some b;
      b
