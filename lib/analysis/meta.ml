module Schema = Graql_storage.Schema
module Dtype = Graql_storage.Dtype

type vertex_meta = {
  vm_name : string;
  vm_key : Schema.t;
  vm_attrs : Schema.t;
  vm_source : string;
  vm_size : int option;
}

type edge_meta = {
  em_name : string;
  em_src : string;
  em_dst : string;
  em_attrs : Schema.t option;
  em_size : int option;
}

type entity =
  | M_table of Schema.t * int option
  | M_vertex of vertex_meta
  | M_edge of edge_meta
  | M_subgraph of string list

type t = {
  entities : (string, entity) Hashtbl.t;
  mutable order : string list; (* original display names, reversed *)
}

let norm = String.lowercase_ascii
let create () = { entities = Hashtbl.create 32; order = [] }
let copy t = { entities = Hashtbl.copy t.entities; order = t.order }

let add t name entity =
  let key = norm name in
  if Hashtbl.mem t.entities key then
    failwith (Printf.sprintf "entity %S already declared" name);
  Hashtbl.add t.entities key entity;
  t.order <- name :: t.order

let add_table t name schema = add t name (M_table (schema, None))
let add_vertex t vm = add t vm.vm_name (M_vertex vm)
let add_edge t em = add t em.em_name (M_edge em)

let add_subgraph t name vtypes =
  (* Subgraph results may be overwritten by re-running a script. *)
  let key = norm name in
  if not (Hashtbl.mem t.entities key) then t.order <- name :: t.order;
  Hashtbl.replace t.entities key (M_subgraph vtypes)

let find t name = Hashtbl.find_opt t.entities (norm name)
let mem t name = Hashtbl.mem t.entities (norm name)

let set_size t name size =
  let key = norm name in
  match Hashtbl.find_opt t.entities key with
  | Some (M_table (s, _)) -> Hashtbl.replace t.entities key (M_table (s, Some size))
  | Some (M_vertex vm) ->
      Hashtbl.replace t.entities key (M_vertex { vm with vm_size = Some size })
  | Some (M_edge em) ->
      Hashtbl.replace t.entities key (M_edge { em with em_size = Some size })
  | Some (M_subgraph _) | None -> ()

let find_table t name =
  match find t name with Some (M_table (s, _)) -> Some s | _ -> None

let find_vertex t name =
  match find t name with Some (M_vertex vm) -> Some vm | _ -> None

let find_edge t name =
  match find t name with Some (M_edge em) -> Some em | _ -> None

let find_subgraph t name =
  match find t name with Some (M_subgraph vs) -> Some vs | _ -> None

let names t = List.rev t.order

let edges_between t ~src ~dst =
  List.filter_map
    (fun name ->
      match Hashtbl.find t.entities (norm name) with
      | M_edge em when norm em.em_src = norm src && norm em.em_dst = norm dst ->
          Some em
      | _ -> None)
    (List.rev t.order)
