(* The Berlin scenario end-to-end: the engine's answers for the paper's
   queries must agree with independent oracles computed straight from the
   generated CSV text. *)

module Session = Graql_gems.Session
module Db = Graql_engine.Db
module Script_exec = Graql_engine.Script_exec
module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Subgraph = Graql_graph.Subgraph
module Graph_store = Graql_graph.Graph_store
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Gen = Graql_berlin.Berlin_gen
module Queries = Graql_berlin.Berlin_queries
module Reference = Graql_berlin.Berlin_reference

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sessions : (int * int, Session.t) Hashtbl.t = Hashtbl.create 4

let session ?(seed = 42) ~scale () =
  match Hashtbl.find_opt sessions (seed, scale) with
  | Some s -> s
  | None ->
      let s = Session.create () in
      Gen.ingest_all ~seed ~scale s;
      Hashtbl.replace sessions (seed, scale) s;
      s

let last_table results =
  match List.rev results with
  | (_, Script_exec.O_table t) :: _ -> t
  | _ -> Alcotest.fail "expected table result"

let set_param s name v = Db.set_param (Session.db s) name (Value.Str v)

(* Compare an engine top-k table (id, count) against a full oracle ranking:
   counts must agree positionally, every reported id's count must match the
   oracle, and no omitted id may beat the reported minimum. *)
let check_topk_against_oracle ~what table oracle =
  let k = Table.nrows table in
  let engine =
    List.init k (fun i ->
        ( Value.to_string (Table.get ~row:i ~col:0 table),
          Value.as_int (Table.get ~row:i ~col:1 table) ))
  in
  let oracle_counts = List.map snd oracle in
  let engine_counts = List.map snd engine in
  let expected_counts = List.filteri (fun i _ -> i < k) oracle_counts in
  if engine_counts <> expected_counts then
    Alcotest.failf "%s: count sequence mismatch: engine [%s], oracle [%s]" what
      (String.concat ";" (List.map string_of_int engine_counts))
      (String.concat ";" (List.map string_of_int expected_counts));
  List.iter
    (fun (id, c) ->
      match List.assoc_opt id oracle with
      | Some oc when oc = c -> ()
      | Some oc -> Alcotest.failf "%s: %s has count %d, oracle %d" what id c oc
      | None -> Alcotest.failf "%s: %s not in oracle" what id)
    engine

let scales = [ 1; 2 ]

(* ------------------------------------------------------------------ *)

let test_ingest_counts () =
  let s = session ~scale:1 () in
  let db = Session.db s in
  let counts = Gen.counts ~scale:1 in
  check_int "products" counts.Gen.n_products
    (Table.nrows (Db.find_table_exn db "Products"));
  check_int "offers" counts.Gen.n_offers
    (Table.nrows (Db.find_table_exn db "Offers"));
  check_int "reviews" counts.Gen.n_reviews
    (Table.nrows (Db.find_table_exn db "Reviews"))

let test_views_built () =
  let s = session ~scale:1 () in
  let g = Db.graph (Session.db s) in
  let counts = Gen.counts ~scale:1 in
  check_int "product vertices" counts.Gen.n_products
    (Vset.size (Graph_store.find_vset_exn g "ProductVtx"));
  check_int "review edges" counts.Gen.n_reviews
    (Eset.size (Graph_store.find_eset_exn g "reviewFor"));
  (* Country views are many-to-one. *)
  check "producer country view" true
    (not (Vset.one_to_one (Graph_store.find_vset_exn g "ProducerCountry")))

let test_q2_matches_oracle () =
  List.iter
    (fun scale ->
      let s = session ~scale () in
      let product = Reference.most_offered_product ~scale () in
      set_param s "Product1" product;
      let table = last_table (Session.run_script s Queries.q2) in
      let oracle = Reference.q2_oracle ~scale ~product () in
      check_topk_against_oracle ~what:(Printf.sprintf "q2@%d" scale) table oracle)
    scales

let test_q2_different_seeds () =
  List.iter
    (fun seed ->
      let s = session ~seed ~scale:1 () in
      let product = Reference.most_offered_product ~seed ~scale:1 () in
      set_param s "Product1" product;
      let table = last_table (Session.run_script s Queries.q2) in
      let oracle = Reference.q2_oracle ~seed ~scale:1 ~product () in
      check_topk_against_oracle ~what:(Printf.sprintf "q2 seed %d" seed) table oracle)
    [ 7; 99 ]

let test_q1_matches_oracle () =
  List.iter
    (fun scale ->
      let s = session ~scale () in
      (* Pick the two most common countries so the result is non-empty. *)
      let c1 = "US" and c2 = "IT" in
      set_param s "Country1" c1;
      set_param s "Country2" c2;
      let table = last_table (Session.run_script s Queries.q1) in
      let oracle = Reference.q1_oracle ~scale ~c1 ~c2 () in
      check_topk_against_oracle ~what:(Printf.sprintf "q1@%d" scale) table oracle)
    scales

let test_fig9_context () =
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  let results = Session.run_script s Queries.fig9_type_matching in
  match results with
  | [ (_, Script_exec.O_subgraph sg) ] ->
      let offers, reviews = Reference.product_context ~scale:1 ~product () in
      check_int "offer vertices" offers
        (List.length (Subgraph.vertex_list sg ~vtype:"OfferVtx"));
      check_int "review vertices" reviews
        (List.length (Subgraph.vertex_list sg ~vtype:"ReviewVtx"));
      check_int "the product itself" 1
        (List.length (Subgraph.vertex_list sg ~vtype:"ProductVtx"));
      check_int "edges" (offers + reviews) (Subgraph.total_edges sg)
  | _ -> Alcotest.fail "expected one subgraph"

let test_export_edges_match_oracle () =
  let s = session ~scale:1 () in
  let g = Db.graph (Session.db s) in
  let export = Graph_store.find_eset_exn g "export" in
  let pc = Graph_store.find_vset_exn g "ProducerCountry" in
  let vc = Graph_store.find_vset_exn g "VendorCountry" in
  let engine =
    List.sort_uniq compare
      (List.init (Eset.size export) (fun e ->
           ( Vset.key_string pc (Eset.src export e),
             Vset.key_string vc (Eset.dst export e) )))
  in
  check "pairs equal oracle" true (engine = Reference.export_pairs ~scale:1 ());
  (* Many-to-one edges are deduped: one edge per country pair. *)
  check_int "deduped" (List.length engine) (Eset.size export)

let test_fig10_regex_reach () =
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  let results = Session.run_script s Queries.fig10_regex in
  match List.filter_map (function (_, Script_exec.O_subgraph sg) -> Some sg | _ -> None) results with
  | [ plus; two ] ->
      check "plus reaches types and features" true
        (Subgraph.vertex_list plus ~vtype:"TypeVtx" <> []
        && Subgraph.vertex_list plus ~vtype:"FeatureVtx" <> []);
      (* {2} ⊆ + as vertex sets per type *)
      List.iter
        (fun vt ->
          let sub = Subgraph.vertex_list two ~vtype:vt in
          let sup = Subgraph.vertex_list plus ~vtype:vt in
          check (vt ^ " subset") true (List.for_all (fun v -> List.mem v sup) sub))
        [ "TypeVtx"; "FeatureVtx"; "ProducerVtx" ]
  | _ -> Alcotest.fail "expected two subgraphs"

let test_fig11_capture () =
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  let results = Session.run_script s Queries.fig11_subgraph_capture in
  match
    List.filter_map
      (function (_, Script_exec.O_subgraph sg) -> Some sg | _ -> None)
      results
  with
  | [ full; endpoints ] ->
      let offers, _ = Reference.product_context ~scale:1 ~product () in
      check_int "full has product edges" offers (Subgraph.total_edges full);
      check_int "endpoints has no edges" 0 (Subgraph.total_edges endpoints);
      check_int "same vertices" (Subgraph.total_vertices full)
        (Subgraph.total_vertices endpoints)
  | _ -> Alcotest.fail "expected two subgraphs"

let test_fig12_seeding () =
  let s = session ~scale:1 () in
  set_param s "Country1" "US";
  let results = Session.run_script s Queries.fig12_seeded in
  match
    List.filter_map
      (function (_, Script_exec.O_subgraph sg) -> Some sg | _ -> None)
      results
  with
  | [ seeds; expanded ] ->
      check "seeds only vendors" true (Subgraph.vtypes seeds = [ "vendorvtx" ]);
      check "expansion adds offers and products" true
        (Subgraph.vertex_list expanded ~vtype:"OfferVtx" <> []
        && Subgraph.vertex_list expanded ~vtype:"ProductVtx" <> []);
      (* Every vendor in the expansion was a seed. *)
      let seed_vendors = Subgraph.vertex_list seeds ~vtype:"VendorVtx" in
      check "vendors preserved" true
        (List.for_all
           (fun v -> List.mem v seed_vendors)
           (Subgraph.vertex_list expanded ~vtype:"VendorVtx"))
  | _ -> Alcotest.fail "expected two subgraphs"

let test_fig13_flatten () =
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  let results = Session.run_script s Queries.fig13_into_table in
  let t = last_table results in
  let _, reviews = Reference.product_context ~scale:1 ~product () in
  check "review count matches" true
    (Table.get_by_name t ~row:0 "reviews" = Value.Int reviews)

let test_eq12_only_same_type_edges () =
  let s = session ~scale:1 () in
  let results = Session.run_script s Queries.eq12_structural in
  match results with
  | [ (_, Script_exec.O_subgraph sg) ] ->
      (* subclass is TypeVtx->TypeVtx; export connects two *different*
         country types, so only subclass hops may appear. *)
      check "only subclass edges" true (Subgraph.etypes sg = [ "subclass" ]);
      check "only type vertices" true (Subgraph.vtypes sg = [ "typevtx" ])
  | _ -> Alcotest.fail "expected one subgraph"

(* ------------------------------------------------------------------ *)
(* Extended BI mix                                                     *)

let test_bi4_rating_by_country () =
  let s = session ~scale:1 () in
  let t = last_table (Session.run_script s Queries.bi4_rating_by_country) in
  let oracle = Reference.bi4_oracle ~scale:1 () in
  check_int "one row per country" (List.length oracle) (Table.nrows t);
  List.iteri
    (fun i (country, reviews, avg) ->
      let ec = Value.to_string (Table.get_by_name t ~row:i "country") in
      let er = Value.as_int (Table.get_by_name t ~row:i "reviews") in
      let ea = Value.as_float (Table.get_by_name t ~row:i "avgRating") in
      if ec <> country then
        Alcotest.failf "bi4 row %d: %s vs oracle %s" i ec country;
      check_int (country ^ " reviews") reviews er;
      if Float.abs (ea -. avg) > 1e-9 then
        Alcotest.failf "bi4 %s: avg %f vs oracle %f" country ea avg)
    oracle

let test_bi6_similar_cheaper () =
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  Db.set_param (Session.db s) "MaxPrice" (Value.Float 2000.0);
  let t = last_table (Session.run_script s Queries.bi6_similar_cheaper) in
  let engine =
    List.init (Table.nrows t) (fun i ->
        Value.to_string (Table.get_by_name t ~row:i "product"))
  in
  let oracle =
    Reference.bi6_oracle ~scale:1 ~product ~max_price:2000.0 ()
  in
  check "bi6 equals oracle" true (engine = oracle)

let test_bi8_product_reach () =
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  let t = last_table (Session.run_script s Queries.bi8_product_reach) in
  let engine =
    List.init (Table.nrows t) (fun i ->
        Value.to_string (Table.get_by_name t ~row:i "country"))
  in
  check "bi8 equals oracle" true
    (engine = Reference.bi8_oracle ~scale:1 ~product ())

let test_bi_mix_smoke () =
  (* Every extended query runs clean through the full pipeline and returns
     a non-empty, sensibly-shaped result. *)
  let s = session ~scale:1 () in
  let product = Reference.most_offered_product ~scale:1 () in
  set_param s "Product1" product;
  Db.set_param (Session.db s) "MaxPrice" (Value.Float 5000.0);
  List.iter
    (fun (name, q) ->
      match List.rev (Session.run_script s q) with
      | (_, Script_exec.O_table t) :: _ ->
          if Table.nrows t = 0 then Alcotest.failf "%s returned no rows" name
      | _ -> Alcotest.failf "%s did not end in a table" name)
    Queries.bi_all

let test_determinism_across_runs () =
  (* Same seed+scale: two sessions, byte-identical query results. *)
  let run () =
    let s = Session.create () in
    Gen.ingest_all ~seed:4242 ~scale:1 s;
    let product = Reference.most_offered_product ~seed:4242 ~scale:1 () in
    Db.set_param (Session.db s) "Product1" (Value.Str product);
    let t = last_table (Session.run_script s Queries.q2) in
    List.init (Table.nrows t) (fun i ->
        Array.to_list (Array.map Value.to_string (Table.row t i)))
  in
  check "identical" true (run () = run ())

let test_csv_deterministic () =
  check "generator deterministic" true
    (Gen.csv_files ~seed:1 ~scale:1 () = Gen.csv_files ~seed:1 ~scale:1 ());
  check "seed changes data" true
    (Gen.csv_files ~seed:1 ~scale:1 () <> Gen.csv_files ~seed:2 ~scale:1 ())

(* MD5 of every SF4 file at seed 42, as generated when the Zipf CDF memo
   still capped its entry count: the memo must only memoize. *)
let sf4_digests =
  [
    ("features.csv", "901ee64af1e9e697ab56245ac84a5eaa");
    ("offers.csv", "f5eea1b141d009ae585d88445b7e1d9f");
    ("persons.csv", "6b3b60b493dbdbef4004e2052621dc7d");
    ("producers.csv", "c2928c4de3542cd7079b517a832e9ff5");
    ("productfeatures.csv", "b5005cb805825618e8377c506e9b0088");
    ("products.csv", "6a247225a23c24dd32257c38575fab97");
    ("producttypes.csv", "1172e1c66cd96765fcdf7ba79c743554");
    ("reviews.csv", "18d36009d3450ec5794037990ce25fa6");
    ("types.csv", "00685faf3625dd4e264d13cd1f606e31");
    ("vendors.csv", "d4860c1124edd4e08fd16b9fbafd6148");
  ]

let test_sf4_bytes_unchanged () =
  let files = Gen.csv_files ~seed:42 ~scale:4 () in
  check_int "file count" (List.length sf4_digests) (List.length files);
  List.iter
    (fun (name, md5) ->
      Alcotest.(check string) name md5
        (Digest.to_hex (Digest.string (List.assoc name files))))
    sf4_digests

(* The type hierarchy draws from many small CDFs before the product,
   offer and review draws; those large CDFs must still be memoized, or
   every draw rebuilds one (seconds at SF32). *)
let test_sf32_generation_fast () =
  let t0 = Unix.gettimeofday () in
  ignore (Gen.csv_files ~seed:7 ~scale:32 ());
  let s = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "SF32 generated in %.2f s (< 1 s)" s) true (s < 1.0)

let () =
  Alcotest.run "berlin"
    [
      ( "load",
        [
          Alcotest.test_case "ingest counts" `Quick test_ingest_counts;
          Alcotest.test_case "views built" `Quick test_views_built;
          Alcotest.test_case "generator determinism" `Quick test_csv_deterministic;
          Alcotest.test_case "SF4 bytes unchanged" `Quick test_sf4_bytes_unchanged;
          Alcotest.test_case "SF32 generation under 1 s" `Quick
            test_sf32_generation_fast;
        ] );
      ( "queries-vs-oracles",
        [
          Alcotest.test_case "Q2 (fig 6)" `Slow test_q2_matches_oracle;
          Alcotest.test_case "Q2 other seeds" `Slow test_q2_different_seeds;
          Alcotest.test_case "Q1 (fig 7)" `Slow test_q1_matches_oracle;
          Alcotest.test_case "fig 9 type matching" `Quick test_fig9_context;
          Alcotest.test_case "fig 4/5 export edges" `Quick
            test_export_edges_match_oracle;
          Alcotest.test_case "fig 10 regex reach" `Quick test_fig10_regex_reach;
          Alcotest.test_case "fig 11 capture modes" `Quick test_fig11_capture;
          Alcotest.test_case "fig 12 seeding" `Quick test_fig12_seeding;
          Alcotest.test_case "fig 13 flatten + post-process" `Quick test_fig13_flatten;
          Alcotest.test_case "eq 12 structural" `Quick test_eq12_only_same_type_edges;
        ] );
      ( "bi-mix",
        [
          Alcotest.test_case "bi4 vs oracle" `Quick test_bi4_rating_by_country;
          Alcotest.test_case "bi6 vs oracle" `Quick test_bi6_similar_cheaper;
          Alcotest.test_case "bi8 vs oracle" `Quick test_bi8_product_reach;
          Alcotest.test_case "whole mix runs" `Quick test_bi_mix_smoke;
        ] );
      ( "determinism",
        [ Alcotest.test_case "rerun identical" `Quick test_determinism_across_runs ] );
    ]
