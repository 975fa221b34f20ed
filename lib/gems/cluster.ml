module Table = Graql_storage.Table
module Table_catalog = Graql_storage.Table_catalog
module Db = Graql_engine.Db
module Graph_store = Graql_graph.Graph_store
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr

type item = { it_name : string; it_shard : int; it_bytes : int }

type plan = {
  pl_nodes : int;
  pl_mem_per_node : int;
  pl_total_bytes : int;
  pl_node_bytes : int array;
  pl_assignments : (item * int) list;
  pl_fits : bool;
  pl_skew : float;
}

let bytes_pretty n =
  let f = float_of_int n in
  if f >= 1e12 then Printf.sprintf "%.2f TB" (f /. 1e12)
  else if f >= 1e9 then Printf.sprintf "%.2f GB" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.2f MB" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.2f kB" (f /. 1e3)
  else Printf.sprintf "%d B" n

(* CSR footprint: offsets (V+1) + neighbor and edge-id arrays (E each),
   8 bytes per entry, both directions accounted by the caller. *)
let csr_bytes csr = 8 * (Csr.nvertices csr + 1 + (2 * Csr.nedges csr))

let database_items ?(shards_per_table = 4) db =
  let tables =
    List.map
      (Table_catalog.find_exn (Db.tables db))
      (Table_catalog.names (Db.tables db))
  in
  let table_items =
    List.concat_map
      (fun t ->
        let total = Table.approx_bytes t in
        let per = total / max 1 shards_per_table in
        List.init shards_per_table (fun i ->
            {
              it_name = "table:" ^ Table.name t;
              it_shard = i;
              it_bytes =
                (if i = shards_per_table - 1 then
                   total - (per * (shards_per_table - 1))
                 else per);
            }))
      tables
  in
  let g = Db.graph db in
  let vertex_items =
    List.map
      (fun name ->
        let v = Graph_store.find_vset_exn g name in
        (* key tuples + hash index entries: ~48 bytes per instance. *)
        { it_name = "vertex:" ^ name; it_shard = 0; it_bytes = 48 * Vset.size v })
      (Graph_store.vset_names g)
  in
  let edge_items =
    List.map
      (fun name ->
        let e = Graph_store.find_eset_exn g name in
        let bytes =
          csr_bytes (Eset.forward e) + csr_bytes (Eset.reverse e)
          + (16 * Eset.size e) (* src/dst endpoint arrays *)
        in
        { it_name = "edges:" ^ name; it_shard = 0; it_bytes = bytes })
      (Graph_store.eset_names g)
  in
  table_items @ vertex_items @ edge_items

let plan ?shards_per_table ~nodes ~mem_per_node db =
  if nodes <= 0 then invalid_arg "Cluster.plan: nodes must be positive";
  let items = database_items ?shards_per_table db in
  (* LPT greedy: biggest item first onto the least-loaded node. *)
  let sorted =
    List.sort (fun a b -> compare b.it_bytes a.it_bytes) items
  in
  let load = Array.make nodes 0 in
  let assignments =
    List.map
      (fun item ->
        let best = ref 0 in
        for n = 1 to nodes - 1 do
          if load.(n) < load.(!best) then best := n
        done;
        load.(!best) <- load.(!best) + item.it_bytes;
        (item, !best))
      sorted
  in
  let total = Array.fold_left ( + ) 0 load in
  let max_load = Array.fold_left max 0 load in
  let mean = float_of_int total /. float_of_int nodes in
  {
    pl_nodes = nodes;
    pl_mem_per_node = mem_per_node;
    pl_total_bytes = total;
    pl_node_bytes = load;
    pl_assignments = assignments;
    pl_fits = max_load <= mem_per_node;
    pl_skew = (if total = 0 then 1.0 else float_of_int max_load /. mean);
  }

let report p =
  let header = [ "node"; "resident"; "capacity"; "fill" ] in
  let rows =
    List.init p.pl_nodes (fun n ->
        [
          string_of_int n;
          bytes_pretty p.pl_node_bytes.(n);
          bytes_pretty p.pl_mem_per_node;
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int p.pl_node_bytes.(n)
            /. float_of_int (max 1 p.pl_mem_per_node));
        ])
  in
  let summary =
    Printf.sprintf
      "total %s over %d node(s); placement skew %.2f; %s"
      (bytes_pretty p.pl_total_bytes)
      p.pl_nodes p.pl_skew
      (if p.pl_fits then "fits" else "DOES NOT FIT")
  in
  Graql_util.Text_table.render ~header rows ^ "\n" ^ summary
