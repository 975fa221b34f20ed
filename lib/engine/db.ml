module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Table_catalog = Graql_storage.Table_catalog
module Schema = Graql_storage.Schema
module Graph_store = Graql_graph.Graph_store
module Subgraph = Graql_graph.Subgraph
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Meta = Graql_analysis.Meta
module Ast = Graql_lang.Ast

type vertex_def = {
  vd_name : string;
  vd_key : string list;
  vd_from : string;
  vd_where : Ast.expr option;
}

type edge_def = {
  ed_name : string;
  ed_src : Ast.vertex_endpoint;
  ed_dst : Ast.vertex_endpoint;
  ed_from : string option;
  ed_where : Ast.expr option;
}

type dep = {
  dep_table : string;
  dep_physical : Table.t;
  dep_rows : int;
}

type fingerprint = {
  fp_deps : dep list;
  fp_params : (string * Value.t option) list;
}

type t = {
  tables : Table_catalog.t;
  mutable vertex_defs : vertex_def list; (* reversed *)
  mutable edge_defs : edge_def list; (* reversed *)
  mutable built : Graph_store.t option;
  (* The build that [built] replaces, kept from invalidation until the
     next build succeeds so its views can be reused or extended, plus the
     fingerprint each view was built against. *)
  mutable last_built : Graph_store.t option;
  mutable view_fingerprints : (string * fingerprint) list;
  mutable builder : (t -> Graph_store.t) option;
  subgraphs : (string, Subgraph.t) Hashtbl.t;
  mutable subgraph_order : string list;
  params : (string, Value.t) Hashtbl.t;
  pool : Graql_parallel.Domain_pool.t option;
  (* Durability sink: when set, Script_exec logs every mutating statement
     here (fsync'd) before applying it. None = in-memory database. *)
  mutable wal : Wal.t option;
  (* Catalog generation: bumped by every mutator that can change what
     [meta] reports, so [meta] rebuilds its snapshot at most once per
     change. Not [rw_epoch]: in-process sessions and recovery mutate
     without taking [write_locked]. *)
  stamp : int Atomic.t;
  meta_cache : (int * Meta.t) option Atomic.t;
  (* The path universe of [built], made on first use after a build. *)
  universe : (Graph_store.t * Pack.universe) option Atomic.t;
  mutex : Mutex.t;
  (* Reader-writer epoch (serve-layer concurrency): read-only statements
     hold the shared side and pin the epoch for their lifetime; mutating
     statements hold the exclusive side (writer-preferring, so a stream
     of readers cannot starve ingest) and bump the epoch on release. The
     epoch counts completed write sections — two reads pinning the same
     epoch observed the same database state. *)
  rw_mu : Mutex.t;
  rw_cv : Condition.t;
  mutable rw_readers : int;
  mutable rw_writer : bool;
  mutable rw_waiting_writers : int;
  mutable rw_epoch : int;
}

let create ?pool () =
  {
    tables = Table_catalog.create ();
    vertex_defs = [];
    edge_defs = [];
    built = None;
    last_built = None;
    view_fingerprints = [];
    builder = None;
    subgraphs = Hashtbl.create 8;
    subgraph_order = [];
    params = Hashtbl.create 8;
    pool;
    wal = None;
    stamp = Atomic.make 0;
    meta_cache = Atomic.make None;
    universe = Atomic.make None;
    mutex = Mutex.create ();
    rw_mu = Mutex.create ();
    rw_cv = Condition.create ();
    rw_readers = 0;
    rw_writer = false;
    rw_waiting_writers = 0;
    rw_epoch = 0;
  }

let pool t = t.pool
let wal t = t.wal
let set_wal t w = t.wal <- w
let tables t = t.tables
let bump t = Atomic.incr t.stamp

let add_table t table =
  Table_catalog.add t.tables table;
  bump t

let find_table t name = Table_catalog.find t.tables name
let find_table_exn t name = Table_catalog.find_exn t.tables name

let invalidate_graph t =
  (match t.built with Some g -> t.last_built <- Some g | None -> ());
  t.built <- None;
  (* Let the replaced graph go once its successor is built. *)
  Atomic.set t.universe None;
  bump t

let last_built t = t.last_built
let view_fingerprints t = t.view_fingerprints
let set_view_fingerprints t fps = t.view_fingerprints <- fps

let add_vertex_def t vd =
  t.vertex_defs <- vd :: t.vertex_defs;
  invalidate_graph t

let add_edge_def t ed =
  t.edge_defs <- ed :: t.edge_defs;
  invalidate_graph t

let vertex_defs t = List.rev t.vertex_defs
let edge_defs t = List.rev t.edge_defs

let set_builder t f = t.builder <- Some f

let graph t =
  match t.built with
  | Some g -> g
  | None -> (
      match t.builder with
      | None -> failwith "Db.graph: no view builder installed"
      | Some build ->
          let g = build t in
          t.built <- Some g;
          (* Release the replaced views; a build that raised kept them. *)
          t.last_built <- None;
          (* After [built] is set: a [meta] that reads the new stamp sees
             the built views. *)
          bump t;
          g)

let universe t =
  let g = graph t in
  match Atomic.get t.universe with
  | Some (g', u) when g' == g -> u
  | _ ->
      let u = Pack.universe g in
      Atomic.set t.universe (Some (g, u));
      u

let norm = String.lowercase_ascii

let add_subgraph t sg =
  let key = norm (Subgraph.name sg) in
  if not (Hashtbl.mem t.subgraphs key) then
    t.subgraph_order <- key :: t.subgraph_order;
  Hashtbl.replace t.subgraphs key sg;
  bump t

let find_subgraph t name = Hashtbl.find_opt t.subgraphs (norm name)

let subgraph_names t =
  List.rev_map
    (fun key -> Subgraph.name (Hashtbl.find t.subgraphs key))
    t.subgraph_order

(* Fold [f] over the leaves of an expression: literals, parameters and
   attribute references. *)
let rec fold_leaves f acc = function
  | (Ast.E_lit _ | Ast.E_param _ | Ast.E_attr _) as e -> f acc e
  | Ast.E_binop (_, a, b, _) -> fold_leaves f (fold_leaves f acc a) b
  | Ast.E_unop (_, a, _) | Ast.E_is_null (a, _, _) -> fold_leaves f acc a
  | Ast.E_call (_, args, _) ->
      List.fold_left
        (fun acc -> function Ast.A_expr e -> fold_leaves f acc e | Ast.A_star -> acc)
        acc args

let where_params = function
  | Some w ->
      List.rev
        (fold_leaves
           (fun acc -> function
             | Ast.E_param (p, _) when not (List.mem p acc) -> p :: acc
             | _ -> acc)
           [] w)
  | None -> []

(* A view's contents depend on the parameters its where clause reads, so
   setting one of them changes the graph as an ingest does. *)
let set_param t name v =
  Hashtbl.replace t.params name v;
  if
    List.exists (fun vd -> List.mem name (where_params vd.vd_where)) t.vertex_defs
    || List.exists (fun ed -> List.mem name (where_params ed.ed_where)) t.edge_defs
  then invalidate_graph t

let find_param t name = Hashtbl.find_opt t.params name

let params t =
  List.sort compare (Hashtbl.fold (fun n v acc -> (n, v) :: acc) t.params [])

(* Whether some view reads the table: a vertex type's source, an edge's
   associated table, or a table an edge's where clause names. *)
let view_reads t name =
  let name = norm name in
  let names_it acc = function
    | Ast.E_attr (Some q, _, _) -> acc || norm q = name
    | _ -> acc
  in
  List.exists (fun vd -> norm vd.vd_from = name) t.vertex_defs
  || List.exists
       (fun ed ->
         Option.map norm ed.ed_from = Some name
         || Option.fold ~none:false ~some:(fold_leaves names_it false) ed.ed_where)
       t.edge_defs

let register_result_table t table =
  Table_catalog.replace t.tables table;
  bump t;
  if view_reads t (Table.name table) then invalidate_graph t

let build_meta t =
  let m = Meta.create () in
  List.iter
    (fun name ->
      let table = Table_catalog.find_exn t.tables name in
      Meta.add_table m name (Table.schema table);
      Meta.set_size m name (Table.nrows table))
    (Table_catalog.names t.tables);
  (* Prefer built views (real sizes + one-to-one attribute visibility); fall
     back to definitions when the graph has not been built yet. *)
  (match t.built with
  | Some g ->
      List.iter
        (fun vname ->
          let v = Graph_store.find_vset_exn g vname in
          Meta.add_vertex m
            {
              Meta.vm_name = vname;
              vm_key = Vset.key_schema v;
              vm_attrs = Vset.attr_schema v;
              vm_source = Table.name (Vset.source_table v);
              vm_size = Some (Vset.size v);
            })
        (Graph_store.vset_names g);
      List.iter
        (fun ename ->
          let e = Graph_store.find_eset_exn g ename in
          Meta.add_edge m
            {
              Meta.em_name = ename;
              em_src = Eset.src_type e;
              em_dst = Eset.dst_type e;
              em_attrs = Option.map Table.schema (Eset.attr_table e);
              em_size = Some (Eset.size e);
            })
        (Graph_store.eset_names g)
  | None ->
      List.iter
        (fun vd ->
          match Table_catalog.find t.tables vd.vd_from with
          | Some table ->
              let schema = Table.schema table in
              let key_cols =
                List.filter_map
                  (fun k ->
                    Option.map
                      (fun i ->
                        { Schema.name = k; dtype = Schema.col_dtype schema i })
                      (Schema.find schema k))
                  vd.vd_key
              in
              Meta.add_vertex m
                {
                  Meta.vm_name = vd.vd_name;
                  vm_key = Schema.make key_cols;
                  vm_attrs = schema;
                  vm_source = vd.vd_from;
                  vm_size = None;
                }
          | None -> ())
        (vertex_defs t);
      List.iter
        (fun ed ->
          Meta.add_edge m
            {
              Meta.em_name = ed.ed_name;
              em_src = ed.ed_src.Ast.ve_type;
              em_dst = ed.ed_dst.Ast.ve_type;
              em_attrs =
                Option.bind ed.ed_from (fun tn ->
                    Option.map Table.schema (Table_catalog.find t.tables tn));
              em_size = None;
            })
        (edge_defs t));
  List.iter
    (fun sgname ->
      let sg = Hashtbl.find t.subgraphs (norm sgname) in
      Meta.add_subgraph m sgname (Subgraph.vtypes sg))
    (subgraph_names t);
  m

(* Readers that race here build the same snapshot, so either store wins.
   The stamp is read before the state it describes: a change that lands
   meanwhile leaves the stored stamp behind, never ahead. *)
let meta t =
  let stamp = Atomic.get t.stamp in
  match Atomic.get t.meta_cache with
  | Some (s, m) when s = stamp -> m
  | _ ->
      let m = build_meta t in
      Atomic.set t.meta_cache (Some (stamp, m));
      m

let lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* Reader-writer epoch                                                 *)

let epoch t =
  Mutex.lock t.rw_mu;
  let e = t.rw_epoch in
  Mutex.unlock t.rw_mu;
  e

let read_locked t f =
  Mutex.lock t.rw_mu;
  (* Writer preference: an arriving reader also yields to *waiting*
     writers, so ingest cannot be starved by a read flood. *)
  while t.rw_writer || t.rw_waiting_writers > 0 do
    Condition.wait t.rw_cv t.rw_mu
  done;
  t.rw_readers <- t.rw_readers + 1;
  let e = t.rw_epoch in
  Mutex.unlock t.rw_mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.rw_mu;
      t.rw_readers <- t.rw_readers - 1;
      if t.rw_readers = 0 then Condition.broadcast t.rw_cv;
      Mutex.unlock t.rw_mu)
    (fun () -> (e, f ()))

let write_locked t f =
  Mutex.lock t.rw_mu;
  t.rw_waiting_writers <- t.rw_waiting_writers + 1;
  while t.rw_writer || t.rw_readers > 0 do
    Condition.wait t.rw_cv t.rw_mu
  done;
  t.rw_waiting_writers <- t.rw_waiting_writers - 1;
  t.rw_writer <- true;
  Mutex.unlock t.rw_mu;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.rw_mu;
      t.rw_writer <- false;
      (* Bump unconditionally: a failed write may have partially
         mutated state, so snapshots pinned before it must not be
         considered equal to snapshots pinned after. *)
      t.rw_epoch <- t.rw_epoch + 1;
      Condition.broadcast t.rw_cv;
      Mutex.unlock t.rw_mu)
    f
