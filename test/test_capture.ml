(* Result capture over the columnar binding relation: [into table] output
   and subgraph captures must render byte-for-byte as the row-at-a-time
   capture did (pinned by digests of the full renderings), at every
   domain count, and must still agree with the Berlin and SNB oracles.
   Also covers the capture edge cases, statistics of gathered columns,
   and dictionary-shared result tables across ingest and recovery. *)

module Session = Graql_gems.Session
module Pool = Graql_parallel.Domain_pool
module Db = Graql_engine.Db
module Db_io = Graql_engine.Db_io
module Ddl_exec = Graql_engine.Ddl_exec
module Script_exec = Graql_engine.Script_exec
module Table_plan = Graql_engine.Table_plan
module Graql_error = Graql_engine.Graql_error
module Parser = Graql_lang.Parser
module Ast = Graql_lang.Ast
module Table = Graql_storage.Table
module Column = Graql_storage.Column
module Schema = Graql_storage.Schema
module Csv = Graql_storage.Csv
module Value = Graql_storage.Value
module Subgraph = Graql_graph.Subgraph
module Join = Graql_relational.Join
module BGen = Graql_berlin.Berlin_gen
module BQ = Graql_berlin.Berlin_queries
module BRef = Graql_berlin.Berlin_reference
module BSchema = Graql_berlin.Berlin_schema
module SGen = Graql_snb.Snb_gen
module SQ = Graql_snb.Snb_queries
module SRef = Graql_snb.Snb_reference

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* Tables as their served rendering plus their full CSV; subgraphs as
   their summary plus every member id per type. *)
let render results =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (stmt, outcome) ->
      Buffer.add_string buf ("-- " ^ Ast.stmt_kind stmt ^ "\n");
      match outcome with
      | Script_exec.O_table t ->
          Buffer.add_string buf (Table.to_display_string t);
          Buffer.add_char buf '\n';
          Buffer.add_string buf (Csv.table_to_csv t)
      | Script_exec.O_subgraph sg ->
          Buffer.add_string buf (Subgraph.summary sg);
          Buffer.add_char buf '\n';
          List.iter
            (fun vtype ->
              Buffer.add_string buf
                (Printf.sprintf "%s: %s\n" vtype
                   (String.concat " "
                      (List.map string_of_int (Subgraph.vertex_list sg ~vtype)))))
            (Subgraph.vtypes sg);
          List.iter
            (fun etype ->
              Buffer.add_string buf
                (Printf.sprintf "%s: %s\n" etype
                   (String.concat " "
                      (List.map string_of_int (Subgraph.edges sg ~etype)))))
            (Subgraph.etypes sg)
      | Script_exec.O_message m -> Buffer.add_string buf (m ^ "\n")
      | Script_exec.O_failed e ->
          Buffer.add_string buf ("failed: " ^ Graql_error.to_string e ^ "\n"))
    results;
  Buffer.contents buf

let digest s = Digest.to_hex (Digest.string s)

let with_domains domains f =
  let pool = Pool.create ~domains () in
  let saved = !Join.par_threshold in
  Join.par_threshold := 1;
  Fun.protect
    ~finally:(fun () ->
      Join.par_threshold := saved;
      Pool.shutdown pool)
    (fun () -> f (Session.create ~pool ()))

let domain_counts = [ 1; 2; 4; 8 ]
let set_param s name v = Db.set_param (Session.db s) name v

(* ------------------------------------------------------------------ *)
(* Berlin: the paper's queries, the BI mix and the capture edge cases   *)

let berlin_scale = 8

(* Edge cases: empty results, null attributes, a computed target, a
   mixed-type [ ] slot, 'or' composition, foreach/def labels, minimal
   subgraph capture and wide select-star rows. *)
let edge_cases =
  {|
select * from graph ProductVtx (id = 'nope') --feature--> FeatureVtx ( ) into table EmptyStar
select x.id as xid, y.id as yid from graph
  def x: ProductVtx (id = 'nope') --feature--> def y: FeatureVtx ( ) into table EmptyNamed
select ReviewVtx.ratings_1 as r1, ReviewVtx.id as rid from graph
  ReviewVtx ( ) --reviewFor--> ProductVtx ( ) into table NullAttrs
select 'k' as tag, ReviewVtx.id as rid from graph
  ReviewVtx ( ) --reviewFor--> ProductVtx (id = 'p1') into table Computed
select x.id as xid from graph ProductVtx (id = 'p0') <--[ ]-- def x: [ ] into table Mixed
select * from graph ProductVtx (id = 'p1') <--reviewFor-- ReviewVtx ( )
  or ProductVtx (id = 'p2') <--reviewFor-- ReviewVtx ( ) into table OrTable
select * from graph ProductVtx (id = 'p1') <--reviewFor-- ReviewVtx ( )
  or ProductVtx (id = 'p2') <--product-- OfferVtx ( ) into subgraph OrGraph
select OfferVtx from graph ProductVtx (id = 'p1') <--product-- OfferVtx ( )
  --vendor--> VendorVtx (country = 'US') into subgraph Minimal
select p from graph foreach p: ProductVtx ( ) --producer--> ProducerVtx (country = 'DE')
  into subgraph Foreach
select p.id as pid, t.id as tid from graph
  foreach p: ProductVtx ( ) --type--> def t: TypeVtx ( ) into table Labels
select y.id as yid, OfferVtx.price as price, OfferVtx.deliveryDays as dd from graph
  def y: ProductVtx (id = 'p0') <--product-- OfferVtx (price < 3000.0)
  --vendor--> VendorVtx ( ) into table DefLabel
select * from graph OfferVtx (price < 2000.0) --product--> ProductVtx ( )
  --producer--> ProducerVtx ( ) into table Star
select * from graph ProductVtx (id = 'p5') <--product-- OfferVtx ( )
  --vendor--> VendorVtx ( ) <--vendor-- OfferVtx ( ) into table Wide
|}

let berlin_scripts = BQ.all @ BQ.bi_all @ [ ("edge_cases", edge_cases) ]

(* Digest of the rendering below, as produced by the row-at-a-time
   capture that the columnar one must reproduce. *)
let berlin_golden = "9550f5df7c051523285747e23b9cb8d7"

let test_berlin_capture () =
  let loader = BGen.loader ~scale:berlin_scale () in
  let product = BRef.most_offered_product ~scale:berlin_scale () in
  List.iter
    (fun domains ->
      with_domains domains @@ fun s ->
      ignore
        (Session.run_script ~loader s
           (BSchema.full_ddl ^ "\n" ^ BSchema.ingest_script BGen.table_files));
      set_param s "Product1" (Value.Str product);
      set_param s "Country1" (Value.Str "US");
      set_param s "Country2" (Value.Str "DE");
      set_param s "MaxPrice" (Value.Float 5000.0);
      let results =
        List.map (fun (name, q) -> (name, Session.run_script s q)) berlin_scripts
      in
      check_str
        (Printf.sprintf "Berlin capture digest at %d domains" domains)
        berlin_golden
        (digest (render (List.concat_map snd results)));
      (* The oracles, at this domain count. *)
      let final name =
        match List.rev (List.assoc name results) with
        | (_, Script_exec.O_table t) :: _ -> t
        | _ -> Alcotest.failf "%s did not end in a table" name
      in
      let column t name =
        List.init (Table.nrows t) (fun r ->
            Value.to_string (Table.get_by_name t ~row:r name))
      in
      let counts t name = List.map int_of_string (column t name) in
      (* Top-k against a full ranking: counts agree positionally and every
         reported id carries its oracle count. *)
      let top_k what t oracle =
        let ids = column t "id" and n = counts t "groupCount" in
        check (what ^ " is non-empty") true (n <> []);
        check (what ^ " counts = oracle") true
          (n = List.filteri (fun i _ -> i < List.length n) (List.map snd oracle));
        check (what ^ " ids = oracle") true
          (List.for_all2 (fun id c -> List.assoc_opt id oracle = Some c) ids n)
      in
      top_k "Q2" (final "q2") (BRef.q2_oracle ~scale:berlin_scale ~product ());
      top_k "Q1" (final "q1") (BRef.q1_oracle ~scale:berlin_scale ~c1:"US" ~c2:"DE" ());
      let bi4 = final "bi4_rating_by_country" in
      check "bi4 = oracle" true
        (List.combine (column bi4 "country") (counts bi4 "reviews")
        = List.map (fun (c, n, _) -> (c, n)) (BRef.bi4_oracle ~scale:berlin_scale ()));
      check "bi6 = oracle" true
        (column (final "bi6_similar_cheaper") "product"
        = BRef.bi6_oracle ~scale:berlin_scale ~product ~max_price:5000.0 ());
      check "bi8 = oracle" true
        (column (final "bi8_product_reach") "country"
        = BRef.bi8_oracle ~scale:berlin_scale ~product ()))
    domain_counts

(* ------------------------------------------------------------------ *)
(* SNB: the seven traversals                                           *)

let snb_scale = 2
let snb_golden = "04654f7ecfffab72a5013ab96b02d31f"

let test_snb_capture () =
  let loader = SGen.loader ~scale:snb_scale () in
  let person = SRef.hub_person ~scale:snb_scale () in
  let comment, _ = SRef.deepest_comment ~scale:snb_scale () in
  List.iter
    (fun domains ->
      with_domains domains @@ fun s ->
      ignore
        (Session.run_script ~loader s
           (Graql_snb.Snb_schema.full_ddl ^ "\n"
           ^ Graql_snb.Snb_schema.ingest_script SGen.table_files));
      set_param s "Person1" (Value.Str person);
      set_param s "Comment1" (Value.Str comment);
      set_param s "Forum1" (Value.Str "fo0");
      let results = List.concat_map (fun (_, q) -> Session.run_script s q) SQ.all in
      check_str
        (Printf.sprintf "SNB capture digest at %d domains" domains)
        snb_golden
        (digest (render results)))
    domain_counts

(* ------------------------------------------------------------------ *)
(* Edge cases, stated directly                                         *)

let small_session () =
  let s = Session.create () in
  ignore
    (Session.run_script ~loader:(BGen.loader ~scale:1 ()) s
       (BSchema.full_ddl ^ "\n" ^ BSchema.ingest_script BGen.table_files));
  s

let table_of s src =
  match List.rev (Session.run_script s src) with
  | (_, Script_exec.O_table t) :: _ -> t
  | (_, Script_exec.O_failed e) :: _ -> Alcotest.fail (Graql_error.to_string e)
  | _ -> Alcotest.fail "expected a table"

let test_edge_cases () =
  let s = small_session () in
  let empty =
    table_of s
      "select * from graph ProductVtx (id = 'nope') --feature--> FeatureVtx ( ) \
       into table E"
  in
  check_int "empty result has no rows" 0 (Table.nrows empty);
  check "empty result keeps the flattened schema" true
    (Schema.arity (Table.schema empty) > 0);
  let nulls =
    table_of s
      "select ReviewVtx.ratings_1 as r1 from graph ReviewVtx ( ) --reviewFor--> \
       ProductVtx ( ) into table N"
  in
  let reviews = Db.find_table_exn (Session.db s) "Reviews" in
  let src_nulls = ref 0 in
  Table.iter_rows
    (fun r ->
      if Table.get_by_name reviews ~row:r "ratings_1" = Value.Null then incr src_nulls)
    reviews;
  let out_nulls = ref 0 in
  Table.iter_rows
    (fun r -> if Table.get nulls ~row:r ~col:0 = Value.Null then incr out_nulls)
    nulls;
  check "source has null ratings" true (!src_nulls > 0);
  check_int "null attributes survive the gather" !src_nulls !out_nulls;
  let computed =
    table_of s
      "select 'k' as tag, ReviewVtx.id as rid from graph ReviewVtx ( ) \
       --reviewFor--> ProductVtx (id = 'p1') into table C"
  in
  check "computed target evaluated per row" true
    (Table.nrows computed > 0
    && List.for_all
         (fun r -> Table.get computed ~row:r ~col:0 = Value.Str "k")
         (List.init (Table.nrows computed) Fun.id));
  let mixed =
    table_of s
      "select x.id as xid from graph ProductVtx (id = 'p0') <--[ ]-- def x: [ ] \
       into table M"
  in
  let typed step =
    Table.nrows
      (table_of s
         (Printf.sprintf
            "select * from graph ProductVtx (id = 'p0') %s into table T" step))
  in
  check_int "mixed-type slot captures offers and reviews"
    (typed "<--product-- OfferVtx ( )" + typed "<--reviewFor-- ReviewVtx ( )")
    (Table.nrows mixed);
  let either =
    table_of s
      "select * from graph ProductVtx (id = 'p1') <--reviewFor-- ReviewVtx ( ) \
       or ProductVtx (id = 'p1') <--reviewFor-- ReviewVtx ( ) into table Or1"
  in
  let once =
    table_of s
      "select * from graph ProductVtx (id = 'p1') <--reviewFor-- ReviewVtx ( ) \
       into table Or2"
  in
  check_str "'or' of a path with itself is the path (set semantics)"
    (Csv.table_to_csv ~header:false once)
    (Csv.table_to_csv ~header:false either);
  let each =
    table_of s
      "select p.id as pid, q.id as qid from graph foreach p: ProductVtx ( ) \
       --feature--> FeatureVtx ( ) <--feature-- def q: ProductVtx ( ) \
       --feature--> FeatureVtx ( ) <--feature-- p into table F"
  in
  check "foreach label closes the cycle on its own binding" true (Table.nrows each > 0)

(* ------------------------------------------------------------------ *)
(* Statistics of gathered columns                                      *)

let stats_or_fail c =
  match Column.stats c with Some st -> st | None -> Alcotest.fail "no statistics"

let test_gathered_stats () =
  let s = small_session () in
  let t =
    table_of s
      "select OfferVtx.price as price, OfferVtx.deliveryDays as dd, \
       OfferVtx.validFrom as vf, VendorVtx.country as country, \
       ReviewVtx.ratings_1 as r1 from graph VendorVtx ( ) <--vendor-- OfferVtx ( ) \
       --product--> ProductVtx ( ) <--reviewFor-- ReviewVtx ( ) into table S"
  in
  (* The same values appended one by one: what the ingest path tracks. *)
  let appended = Table.create ~name:"A" (Table.schema t) in
  Table.iter_rows (fun r -> Table.append_row_array appended (Table.row t r)) t;
  for c = 0 to Table.arity t - 1 do
    let name = Schema.col_name (Table.schema t) c in
    check
      (Printf.sprintf "%s: gathered statistics = appended statistics" name)
      true
      (stats_or_fail (Table.column t c) = stats_or_fail (Table.column appended c))
  done;
  let country = stats_or_fail (Table.column t 3) in
  check "shared dictionary: distinct counts held values, not the pool" true
    (country.Column.st_distinct
    < float_of_int (Column.dict_size (Table.column t 3)) +. 1.
    && country.Column.st_distinct <= float_of_int (Array.length BGen.countries))

(* EXPLAIN of a join over two path results reads their statistics; the
   plan must be the one the row-at-a-time capture's tracked columns gave. *)
let explain_golden =
  "table plan:\n"
   ^ "  scan pc (100 rows) + filter (est. 25.0)\n"
   ^ "  scan op (218 rows) + filter (est. 62.3)\n"
   ^ "  join op (est. 25.0 rows, build left)\n"
   ^ "table plan:\n"
   ^ "  scan op (218 rows) + filter (est. 21.8)\n"
   ^ "  scan pc (100 rows)\n"
   ^ "  join pc (est. 21.8 rows, build left)"

let test_explain_join_over_results () =
  let s = small_session () in
  set_param s "Product1" (Value.Str (BRef.most_offered_product ~scale:1 ()));
  ignore
    (Session.run_script s
       {|select ProductVtx.id as pid, ProducerVtx.country as country from graph
           ProductVtx ( ) --producer--> ProducerVtx ( ) into table PC
         select OfferVtx.price as price, OfferVtx.deliveryDays as days,
           ProductVtx.id as product from graph
           OfferVtx (price < 5000.0) --product--> ProductVtx ( ) into table OP|});
  let plan src =
    match Parser.parse_statement src with
    | Ast.Select_table st ->
        Table_plan.to_string
          (Table_plan.of_select ~db:(Session.db s) ~params:(fun _ -> None) st)
    | _ -> Alcotest.fail "table select expected"
  in
  let text =
    plan
      {|select country, count(*) as n from table PC as a, OP as b
          where a.pid = b.product and b.days < 5 and a.country = 'US'
          group by country|}
    ^ "\n"
    ^ plan
        {|select product from table OP as o, PC as p
            where o.product = p.pid and o.price > 100.0|}
  in
  check_str "EXPLAIN text" explain_golden text

(* ------------------------------------------------------------------ *)
(* Dictionary-shared results across ingest and recovery                *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_shared_dictionary_result () =
  let dir = Filename.temp_file "graql_capture" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let s =
    Session.create ~durability:(Session.Wal_dir dir) ~checkpoint_bytes:max_int ()
  in
  let files = BGen.csv_files ~scale:1 () in
  let products_csv = List.assoc "products.csv" files in
  let header = List.hd (String.split_on_char '\n' products_csv) in
  let extra =
    header ^ "\n"
    ^ "pnew0,Product,zzfresh0,a fine product,m1,1,2,3,4,5,a,b,c,d,e,pub0,2007-02-18\n"
    ^ "pnew1,Product,zzfresh1,a fine product,m2,1,2,3,4,5,a,b,c,d,e,pub0,2007-02-18\n"
  in
  let loader = function
    | "extra_products.csv" -> extra
    | f -> List.assoc f files
  in
  ignore
    (Session.run_script ~loader s
       (BSchema.full_ddl ^ "\n" ^ BSchema.ingest_script BGen.table_files));
  let r =
    table_of s
      "select ProductVtx.label as label, ProducerVtx.country as country from \
       graph ProductVtx ( ) --producer--> ProducerVtx ( ) into table R"
  in
  let label = Table.column r 0 in
  let before = Csv.table_to_csv r and stats_before = Column.stats label in
  let pool_before = Column.dict_size label in
  ignore (Session.run_script ~loader s "ingest table Products extra_products.csv");
  check "the ingest grew the shared dictionary" true
    (Column.dict_size label > pool_before);
  let r' = Db.find_table_exn (Session.db s) "R" in
  check_str "result values unchanged by the ingest" before (Csv.table_to_csv r');
  check "result statistics unchanged by the ingest" true
    (Column.stats (Table.column r' 0) = stats_before);
  check "checkpoint" true (Session.checkpoint s);
  Session.close s;
  let db = Db.create () in
  Ddl_exec.install db;
  ignore (Db_io.recover db ~dir);
  check_str "result survives checkpoint + recovery byte-identical" before
    (Csv.table_to_csv (Db.find_table_exn db "R"))

let () =
  Alcotest.run "capture"
    [
      ( "oracles",
        [
          Alcotest.test_case "Berlin queries, BI mix, edge cases" `Quick
            test_berlin_capture;
          Alcotest.test_case "SNB traversals" `Quick test_snb_capture;
        ] );
      ( "capture",
        [
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "gathered column statistics" `Quick test_gathered_stats;
          Alcotest.test_case "explain over results" `Quick
            test_explain_join_over_results;
          Alcotest.test_case "shared dictionary across ingest and recovery" `Quick
            test_shared_dictionary_result;
        ] );
    ]
