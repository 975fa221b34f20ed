module Bitset = Graql_util.Bitset

type t = {
  name : string;
  vsets : (string, Bitset.t) Hashtbl.t;
  esets : (string, Bitset.t) Hashtbl.t;
}

let norm = String.lowercase_ascii

let empty name = { name; vsets = Hashtbl.create 8; esets = Hashtbl.create 8 }
let name t = t.name

(* A type's first set is taken over, not copied: result capture hands in
   bitsets it has just built. Later sets of the same type are unioned in.
   Ids are stable as a type grows (view maintenance appends), so sets of
   different lengths are the same domain at different times: the shorter
   one is padded. *)
let add_set sets key bits =
  match Hashtbl.find_opt sets key with
  | Some existing ->
      let n = Bitset.length bits in
      let existing =
        if Bitset.length existing >= n then existing
        else begin
          let grown = Bitset.padded existing n in
          Hashtbl.replace sets key grown;
          grown
        end
      in
      Bitset.union_into existing
        (if n = Bitset.length existing then bits
         else Bitset.padded bits (Bitset.length existing))
  | None -> Hashtbl.add sets key bits

let add_vertices t ~vtype bits = add_set t.vsets (norm vtype) bits

let add_vertex_list t ~vtype ids ~size =
  add_vertices t ~vtype (Bitset.of_list size ids)

(* An edge type is listed only once it holds an edge. *)
let add_edges t ~etype bits =
  let key = norm etype in
  if Hashtbl.mem t.esets key || not (Bitset.is_empty bits) then
    add_set t.esets key bits

let vertices t ~vtype = Hashtbl.find_opt t.vsets (norm vtype)

let vertex_list t ~vtype =
  match vertices t ~vtype with
  | Some bits -> Bitset.to_list bits
  | None -> []

let edges t ~etype =
  match Hashtbl.find_opt t.esets (norm etype) with
  | Some bits -> Bitset.to_list bits
  | None -> []

let keys sets = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sets [])
let vtypes t = keys t.vsets
let etypes t = keys t.esets

let cardinal sets =
  Hashtbl.fold (fun _ bits acc -> acc + Bitset.cardinal bits) sets 0

let total_vertices t = cardinal t.vsets
let total_edges t = cardinal t.esets

let union ~name a b =
  let out = empty name in
  let add_from src =
    Hashtbl.iter
      (fun vtype bits -> add_vertices out ~vtype (Bitset.copy bits))
      src.vsets;
    Hashtbl.iter
      (fun etype bits -> add_edges out ~etype (Bitset.copy bits))
      src.esets
  in
  add_from a;
  add_from b;
  out

let summary t =
  Printf.sprintf "subgraph %s: %d vertices (%s), %d edges (%s)" t.name
    (total_vertices t)
    (String.concat ", " (vtypes t))
    (total_edges t)
    (String.concat ", " (etypes t))
