module Value = Graql_storage.Value
module Dtype = Graql_storage.Dtype
module Schema = Graql_storage.Schema
module Table = Graql_storage.Table
module Row_expr = Graql_relational.Row_expr
module Csr = Graql_graph.Csr
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Builder = Graql_graph.Builder
module Graph_store = Graql_graph.Graph_store
module Subgraph = Graql_graph.Subgraph
module Bitset = Graql_util.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let col n t = { Schema.name = n; dtype = t }
let vi i = Value.Int i
let vs s = Value.Str s

(* ------------------------------------------------------------------ *)
(* CSR                                                                 *)

let test_csr_basic () =
  let src = [| 0; 0; 1; 2; 2; 2 |] and dst = [| 1; 2; 2; 0; 1; 1 |] in
  let csr = Csr.build ~nvertices:3 ~src ~dst () in
  check_int "nvertices" 3 (Csr.nvertices csr);
  check_int "nedges" 6 (Csr.nedges csr);
  check_int "deg 0" 2 (Csr.degree csr 0);
  check_int "deg 2" 3 (Csr.degree csr 2);
  check_int "max degree" 3 (Csr.max_degree csr);
  check "avg degree" true (Csr.avg_degree csr = 2.0);
  let nbrs = Csr.neighbors csr 2 in
  check "neighbors with eids" true (nbrs = [| (0, 3); (1, 4); (1, 5) |])

let test_csr_isolated_and_empty () =
  let csr = Csr.build ~nvertices:4 ~src:[||] ~dst:[||] () in
  check_int "no edges" 0 (Csr.nedges csr);
  check_int "isolated degree" 0 (Csr.degree csr 3);
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Csr.build: vertex out of range") (fun () ->
      ignore (Csr.build ~nvertices:2 ~src:[| 5 |] ~dst:[| 0 |] ()))

let test_csr_parallel_edges () =
  (* Multigraph: duplicate (src,dst) pairs must both be indexed. *)
  let csr = Csr.build ~nvertices:2 ~src:[| 0; 0 |] ~dst:[| 1; 1 |] () in
  check_int "both kept" 2 (Csr.degree csr 0)

let prop_csr_preserves_edges =
  QCheck.Test.make ~name:"csr indexes every edge exactly once" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 50) (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let src = Array.of_list (List.map fst edges) in
      let dst = Array.of_list (List.map snd edges) in
      let csr = Csr.build ~nvertices:10 ~src ~dst () in
      let seen = Array.make (Array.length src) false in
      for v = 0 to 9 do
        Csr.iter_neighbors csr v (fun ~dst:d ~eid ->
            if seen.(eid) then failwith "duplicate eid";
            if src.(eid) <> v || dst.(eid) <> d then failwith "wrong endpoint";
            seen.(eid) <- true)
      done;
      Array.for_all Fun.id seen)

(* A pushed level joins the index; older indexes keep their bindings. *)
let test_key_index () =
  let level l =
    let h = Hashtbl.create 8 in
    List.iter (fun (k, v) -> Hashtbl.add h k v) l;
    h
  in
  let module K = Graql_graph.Key_index in
  let a = K.push K.empty (level [ ("x", 0); ("y", 1) ]) in
  let b = K.push a (level [ ("z", 2) ]) in
  let c = K.push b (level [ ("w", 3) ]) in
  check_int "length" 4 (K.length c);
  check "all found" true
    (List.map (K.find c) [ "x"; "y"; "z"; "w" ] = [ Some 0; Some 1; Some 2; Some 3 ]);
  check "older index unchanged" true (K.find a "z" = None && K.find b "w" = None);
  check_int "older length" 2 (K.length a);
  let many =
    List.fold_left
      (fun t i -> K.push t (level [ (string_of_int i, i) ]))
      K.empty (List.init 100 Fun.id)
  in
  check "100 single pushes" true
    (List.for_all (fun i -> K.find many (string_of_int i) = Some i) (List.init 100 Fun.id))

(* ------------------------------------------------------------------ *)
(* Vertex building (Eq. 1)                                             *)

let people_schema =
  Schema.make
    [ col "id" (Dtype.Varchar 4); col "country" (Dtype.Varchar 4); col "score" Dtype.Int ]

let mk_people () =
  Table.of_rows ~name:"people" people_schema
    [
      [ vs "a"; vs "US"; vi 10 ];
      [ vs "b"; vs "IT"; vi 20 ];
      [ vs "c"; vs "US"; vi 30 ];
      [ vs "d"; Value.Null; vi 40 ];
    ]

let test_build_vertices_one_to_one () =
  let v = Builder.build_vertices ~name:"P" ~source:(mk_people ()) ~key_cols:[ 0 ] () in
  check_int "size" 4 (Vset.size v);
  check "one-to-one" true (Vset.one_to_one v);
  check "full attrs visible" true (Schema.arity (Vset.attr_schema v) = 3);
  check "find by key" true (Vset.find_by_key v [ vs "c" ] = Some 2);
  check "attr access" true (Vset.attr_by_name v ~vertex:2 "score" = vi 30)

let test_build_vertices_many_to_one () =
  (* Country vertices: distinct country codes; Null keys skipped. *)
  let v = Builder.build_vertices ~name:"C" ~source:(mk_people ()) ~key_cols:[ 1 ] () in
  check_int "two countries" 2 (Vset.size v);
  check "many-to-one" false (Vset.one_to_one v);
  check "key-only attrs" true (Schema.arity (Vset.attr_schema v) = 1);
  check "US exists" true (Vset.find_by_key v [ vs "US" ] <> None);
  check "null key skipped" true (Vset.find_by_key v [ Value.Null ] = None)

let test_build_vertices_with_condition () =
  let cond = Row_expr.(Cmp (Gt, Col 2, Const (vi 15))) in
  let v =
    Builder.build_vertices ~name:"P" ~source:(mk_people ()) ~key_cols:[ 0 ] ~cond ()
  in
  check_int "filtered" 3 (Vset.size v);
  check "a excluded" true (Vset.find_by_key v [ vs "a" ] = None)

let test_build_vertices_composite_key () =
  let v =
    Builder.build_vertices ~name:"CK" ~source:(mk_people ()) ~key_cols:[ 1; 2 ] ()
  in
  check_int "3 non-null combos" 3 (Vset.size v);
  check "lookup composite" true (Vset.find_by_key v [ vs "US"; vi 30 ] = Some 2)

(* Appended rows extend a view; old ids keep their keys. A repeated key
   in a one-to-one view is refused (the type would turn many-to-one);
   a many-to-one view takes it. *)
let test_extend_vertices () =
  let people = mk_people () in
  let v = Builder.build_vertices ~name:"P" ~source:people ~key_cols:[ 0 ] () in
  Table.append_row people [ vs "e"; vs "FR"; vi 50 ];
  let v2 = Option.get (Builder.extend_vertices v ~key_cols:[ 0 ] ()) in
  check_int "one more vertex" 5 (Vset.size v2);
  check "old ids kept" true (Vset.find_by_key v2 [ vs "c" ] = Some 2);
  check "new id after them" true (Vset.find_by_key v2 [ vs "e" ] = Some 4);
  check "old view unchanged" true
    (Vset.size v = 4 && Vset.find_by_key v [ vs "e" ] = None);
  Table.append_row people [ vs "a"; vs "DE"; vi 60 ];
  check "repeat refused" true (Builder.extend_vertices v2 ~key_cols:[ 0 ] () = None);
  let grown = mk_people () in
  let c = Builder.build_vertices ~name:"C" ~source:grown ~key_cols:[ 1 ] () in
  Table.append_row grown [ vs "x"; vs "US"; vi 1 ];
  Table.append_row grown [ vs "y"; vs "JP"; vi 2 ];
  let c2 = Option.get (Builder.extend_vertices c ~key_cols:[ 1 ] ()) in
  check_int "many-to-one gains only the new key" 3 (Vset.size c2);
  check "new key" true (Vset.find_by_key c2 [ vs "JP" ] = Some 2);
  check "old view keeps its key table" true
    (Table.nrows (Vset.attr_table c) = 2 && Table.nrows (Vset.attr_table c2) = 3)

(* ------------------------------------------------------------------ *)
(* Edge building (Eq. 2) — the Fig. 5 example verbatim                 *)

let fig5_producers () =
  (* id, country — Fig. 5 left table *)
  Table.of_rows ~name:"Producers"
    (Schema.make [ col "id" Dtype.Int; col "country" (Dtype.Varchar 2) ])
    [
      [ vi 1; vs "US" ];
      [ vi 2; vs "IT" ];
      [ vi 3; vs "FR" ];
      [ vi 4; vs "US" ];
    ]

let fig5_offers () =
  (* id, vendor(=country holder) — Fig. 5 right table, as (product producer,
     vendor country) pairs via the join below. We model the paper's
     4-row/4-row example with an explicit pairs table. *)
  Table.of_rows ~name:"Pairs"
    (Schema.make
       [ col "pcountry" (Dtype.Varchar 2); col "vcountry" (Dtype.Varchar 2) ])
    [
      [ vs "US"; vs "CA" ];
      [ vs "US"; vs "CA" ];
      [ vs "IT"; vs "CN" ];
      [ vs "IT"; vs "CN" ];
    ]

let test_fig5_many_to_one_edges () =
  let producers = fig5_producers () in
  let vendors =
    Table.of_rows ~name:"Vendors"
      (Schema.make [ col "id" Dtype.Int; col "country" (Dtype.Varchar 2) ])
      [ [ vi 1; vs "CA" ]; [ vi 2; vs "CN" ]; [ vi 3; vs "CA" ] ]
  in
  let pc = Builder.build_vertices ~name:"PC" ~source:producers ~key_cols:[ 1 ] () in
  let vc = Builder.build_vertices ~name:"VC" ~source:vendors ~key_cols:[ 1 ] () in
  let driving = fig5_offers () in
  let e =
    Builder.build_edges ~name:"export" ~src:pc ~dst:vc ~driving ~src_key:[ 0 ]
      ~dst_key:[ 1 ] ~dedupe:true ()
  in
  (* Fig. 5: "results in two edges created between the US and CA, and
     between IT and CN" — duplicates collapse under many-to-one. *)
  check_int "two edges" 2 (Eset.size e);
  let pair i = (Vset.key_string pc (Eset.src e i), Vset.key_string vc (Eset.dst e i)) in
  check "US->CA" true (List.mem ("US", "CA") [ pair 0; pair 1 ]);
  check "IT->CN" true (List.mem ("IT", "CN") [ pair 0; pair 1 ])

let test_edges_skip_missing_endpoints () =
  let people = mk_people () in
  let p = Builder.build_vertices ~name:"P" ~source:people ~key_cols:[ 0 ] () in
  let driving =
    Table.of_rows ~name:"rel"
      (Schema.make [ col "f" (Dtype.Varchar 4); col "t" (Dtype.Varchar 4) ])
      [
        [ vs "a"; vs "b" ];
        [ vs "a"; vs "zz" ] (* dangling: no vertex zz *);
        [ Value.Null; vs "b" ] (* null key *);
      ]
  in
  let e =
    Builder.build_edges ~name:"knows" ~src:p ~dst:p ~driving ~src_key:[ 0 ]
      ~dst_key:[ 1 ] ()
  in
  check_int "only the valid edge" 1 (Eset.size e);
  check "endpoints" true (Eset.src e 0 = 0 && Eset.dst e 0 = 1)

let test_edges_multigraph_and_attrs () =
  let people = mk_people () in
  let p = Builder.build_vertices ~name:"P" ~source:people ~key_cols:[ 0 ] () in
  let driving =
    Table.of_rows ~name:"rel"
      (Schema.make
         [ col "f" (Dtype.Varchar 4); col "t" (Dtype.Varchar 4); col "w" Dtype.Int ])
      [ [ vs "a"; vs "b"; vi 1 ]; [ vs "a"; vs "b"; vi 2 ] ]
  in
  let e =
    Builder.build_edges ~name:"knows" ~src:p ~dst:p ~driving ~src_key:[ 0 ]
      ~dst_key:[ 1 ] ()
  in
  check_int "parallel edges kept" 2 (Eset.size e);
  check "edge attrs" true (Eset.attr_by_name e ~edge:1 "w" = vi 2);
  (* forward + reverse CSR agree *)
  check_int "fwd degree" 2 (Csr.degree (Eset.forward e) 0);
  check_int "rev degree" 2 (Csr.degree (Eset.reverse e) 1)

let test_edges_with_condition () =
  let people = mk_people () in
  let p = Builder.build_vertices ~name:"P" ~source:people ~key_cols:[ 0 ] () in
  let driving =
    Table.of_rows ~name:"rel"
      (Schema.make
         [ col "f" (Dtype.Varchar 4); col "t" (Dtype.Varchar 4); col "w" Dtype.Int ])
      [ [ vs "a"; vs "b"; vi 1 ]; [ vs "b"; vs "c"; vi 9 ] ]
  in
  let cond = Row_expr.(Cmp (Gt, Col 2, Const (vi 5))) in
  let e =
    Builder.build_edges ~name:"knows" ~src:p ~dst:p ~driving ~src_key:[ 0 ]
      ~dst_key:[ 1 ] ~cond ()
  in
  check_int "filtered" 1 (Eset.size e);
  check "kept the heavy edge" true (Eset.attr_by_name e ~edge:0 "w" = vi 9)

(* ------------------------------------------------------------------ *)
(* Graph store                                                         *)

let small_store () =
  let people = mk_people () in
  let p = Builder.build_vertices ~name:"P" ~source:people ~key_cols:[ 0 ] () in
  let c = Builder.build_vertices ~name:"C" ~source:people ~key_cols:[ 1 ] () in
  let driving =
    Table.of_rows ~name:"rel"
      (Schema.make [ col "f" (Dtype.Varchar 4); col "t" (Dtype.Varchar 4) ])
      [ [ vs "a"; vs "US" ]; [ vs "b"; vs "IT" ] ]
  in
  let e =
    Builder.build_edges ~name:"livesIn" ~src:p ~dst:c ~driving ~src_key:[ 0 ]
      ~dst_key:[ 1 ] ()
  in
  let store = Graph_store.create () in
  Graph_store.add_vset store p;
  Graph_store.add_vset store c;
  Graph_store.add_eset store e;
  store

let test_graph_store () =
  let s = small_store () in
  check "find vset" true (Graph_store.find_vset s "p" <> None);
  check "find eset" true (Graph_store.find_eset s "LIVESIN" <> None);
  check_int "total vertices" 6 (Graph_store.total_vertices s);
  check_int "total edges" 2 (Graph_store.total_edges s);
  check_int "esets between" 1
    (List.length (Graph_store.esets_between s ~src:"P" ~dst:"C"));
  check_int "none reversed" 0
    (List.length (Graph_store.esets_between s ~src:"C" ~dst:"P"));
  Alcotest.check_raises "namespace shared"
    (Failure "graph entity \"P\" already exists") (fun () ->
      Graph_store.add_vset s
        (Builder.build_vertices ~name:"P" ~source:(mk_people ()) ~key_cols:[ 0 ] ()))

(* ------------------------------------------------------------------ *)
(* Subgraph                                                            *)

let test_subgraph () =
  let sg = Subgraph.empty "r" in
  Subgraph.add_vertex_list sg ~vtype:"P" [ 1; 3 ] ~size:10;
  Subgraph.add_vertex_list sg ~vtype:"P" [ 3; 5 ] ~size:10;
  Subgraph.add_edges sg ~etype:"e" (Bitset.of_list 4 [ 0; 2; 0 ]);
  check_int "union of vertices" 3 (Subgraph.total_vertices sg);
  check "vertex list" true (Subgraph.vertex_list sg ~vtype:"p" = [ 1; 3; 5 ]);
  check "edges deduped" true (Subgraph.edges sg ~etype:"E" = [ 0; 2 ]);
  check "missing type" true (Subgraph.vertex_list sg ~vtype:"zz" = []);
  let sg2 = Subgraph.empty "r2" in
  Subgraph.add_vertex_list sg2 ~vtype:"Q" [ 0 ] ~size:4;
  let u = Subgraph.union ~name:"u" sg sg2 in
  check_int "union total" 4 (Subgraph.total_vertices u);
  check "union vtypes" true (Subgraph.vtypes u = [ "p"; "q" ])

(* Ids are stable as a type grows, so sets over different domains are
   the same type at different sizes: the shorter one is padded. *)
let test_subgraph_edge_mismatch () =
  let sg = Subgraph.empty "r" in
  let first = Bitset.of_list 8 [ 1 ] in
  Subgraph.add_edges sg ~etype:"e" first;
  Subgraph.add_edges sg ~etype:"E" (Bitset.of_list 9 [ 2; 8 ]);
  check "longer set padded into" true (Subgraph.edges sg ~etype:"e" = [ 1; 2; 8 ]);
  Subgraph.add_edges sg ~etype:"e" (Bitset.of_list 3 [ 0 ]);
  check "shorter set padded" true (Subgraph.edges sg ~etype:"e" = [ 0; 1; 2; 8 ]);
  check "first set not grown in place" true (Bitset.to_list first = [ 1 ]);
  let a = Subgraph.empty "a" and b = Subgraph.empty "b" in
  Subgraph.add_vertex_list a ~vtype:"P" [ 1 ] ~size:4;
  Subgraph.add_vertex_list b ~vtype:"P" [ 6 ] ~size:7;
  let u = Subgraph.union ~name:"u" a b in
  check "union pads" true (Subgraph.vertex_list u ~vtype:"P" = [ 1; 6 ]);
  let bits = Option.get (Subgraph.vertices a ~vtype:"P") in
  check "beyond the domain is not a member" false (Bitset.mem_padded bits 9)

let test_subgraph_edge_union () =
  let a = Subgraph.empty "a" and b = Subgraph.empty "b" in
  Subgraph.add_edges a ~etype:"e" (Bitset.of_list 70 [ 65; 3 ]);
  Subgraph.add_edges b ~etype:"e" (Bitset.of_list 70 [ 3; 64; 0 ]);
  Subgraph.add_edges b ~etype:"f" (Bitset.of_list 5 [ 4 ]);
  let u = Subgraph.union ~name:"u" a b in
  check "merged and ascending" true
    (Subgraph.edges u ~etype:"e" = [ 0; 3; 64; 65 ]);
  check "other type carried" true (Subgraph.edges u ~etype:"F" = [ 4 ]);
  check_int "total edges" 5 (Subgraph.total_edges u);
  check "operands untouched" true
    (Subgraph.edges a ~etype:"e" = [ 3; 65 ]
    && Subgraph.edges b ~etype:"e" = [ 0; 3; 64 ]);
  Subgraph.add_edges u ~etype:"e" (Bitset.of_list 70 [ 1 ]);
  check "union owns its sets" true (Subgraph.edges a ~etype:"e" = [ 3; 65 ])

let test_subgraph_etypes () =
  let sg = Subgraph.empty "r" in
  Subgraph.add_edges sg ~etype:"Knows" (Bitset.create 10);
  Subgraph.add_edges sg ~etype:"likes" (Bitset.of_list 10 [ 9 ]);
  check "only types with an edge" true (Subgraph.etypes sg = [ "likes" ]);
  check "empty type has no edges" true (Subgraph.edges sg ~etype:"knows" = []);
  check_int "total edges" 1 (Subgraph.total_edges sg);
  Subgraph.add_edges sg ~etype:"knows" (Bitset.of_list 10 [ 2; 7 ]);
  check "listed once captured" true (Subgraph.etypes sg = [ "knows"; "likes" ]);
  check_int "total edges after" 3 (Subgraph.total_edges sg)

(* ------------------------------------------------------------------ *)
(* Degree statistics                                                   *)

module Degree_stats = Graql_graph.Degree_stats

let test_degree_stats () =
  (* degrees: v0 -> 3 edges, v1 -> 1, v2 -> 0, v3 -> 0 *)
  let csr =
    Csr.build ~nvertices:4 ~src:[| 0; 0; 0; 1 |] ~dst:[| 1; 2; 3; 0 |] ()
  in
  let s = Degree_stats.of_csr csr in
  check_int "vertices" 4 s.Degree_stats.ds_vertices;
  check_int "edges" 4 s.Degree_stats.ds_edges;
  check_int "min" 0 s.Degree_stats.ds_min;
  check_int "max" 3 s.Degree_stats.ds_max;
  check "avg" true (s.Degree_stats.ds_avg = 1.0);
  check_int "isolated" 2 s.Degree_stats.ds_isolated;
  check_int "p50" 0 s.Degree_stats.ds_p50;
  check_int "p99" 3 s.Degree_stats.ds_p99

let test_degree_stats_empty_and_uniform () =
  let empty = Degree_stats.of_csr (Csr.build ~nvertices:0 ~src:[||] ~dst:[||] ()) in
  check_int "empty vertices" 0 empty.Degree_stats.ds_vertices;
  let ring_src = Array.init 10 Fun.id in
  let ring_dst = Array.init 10 (fun i -> (i + 1) mod 10) in
  let ring = Degree_stats.of_csr (Csr.build ~nvertices:10 ~src:ring_src ~dst:ring_dst ()) in
  check "uniform ring" true
    (ring.Degree_stats.ds_min = 1 && ring.Degree_stats.ds_max = 1
    && ring.Degree_stats.ds_p90 = 1)

let () =
  Alcotest.run "graph"
    [
      ( "csr",
        [
          Alcotest.test_case "basic" `Quick test_csr_basic;
          Alcotest.test_case "isolated/empty" `Quick test_csr_isolated_and_empty;
          Alcotest.test_case "parallel edges" `Quick test_csr_parallel_edges;
          QCheck_alcotest.to_alcotest prop_csr_preserves_edges;
          Alcotest.test_case "key index levels" `Quick test_key_index;
        ] );
      ( "vertices",
        [
          Alcotest.test_case "one-to-one" `Quick test_build_vertices_one_to_one;
          Alcotest.test_case "many-to-one" `Quick test_build_vertices_many_to_one;
          Alcotest.test_case "with condition" `Quick test_build_vertices_with_condition;
          Alcotest.test_case "composite key" `Quick test_build_vertices_composite_key;
          Alcotest.test_case "extend" `Quick test_extend_vertices;
        ] );
      ( "edges",
        [
          Alcotest.test_case "fig5 many-to-one dedupe" `Quick test_fig5_many_to_one_edges;
          Alcotest.test_case "dangling/null endpoints" `Quick
            test_edges_skip_missing_endpoints;
          Alcotest.test_case "multigraph + attrs" `Quick test_edges_multigraph_and_attrs;
          Alcotest.test_case "edge condition" `Quick test_edges_with_condition;
        ] );
      ("store", [ Alcotest.test_case "registry" `Quick test_graph_store ]);
      ( "subgraph",
        [
          Alcotest.test_case "sets and union" `Quick test_subgraph;
          Alcotest.test_case "edge domain mismatch" `Quick
            test_subgraph_edge_mismatch;
          Alcotest.test_case "edge union, ascending" `Quick
            test_subgraph_edge_union;
          Alcotest.test_case "etypes and totals" `Quick test_subgraph_etypes;
        ] );
      ( "degree_stats",
        [
          Alcotest.test_case "skewed" `Quick test_degree_stats;
          Alcotest.test_case "empty/uniform" `Quick test_degree_stats_empty_and_uniform;
        ] );
    ]
