(* Static query analysis (Sec. III-A): the checks the paper lists must be
   caught from catalog metadata alone. *)

module Meta = Graql_analysis.Meta
module Diag = Graql_analysis.Diag
module Typecheck = Graql_analysis.Typecheck
module Parser = Graql_lang.Parser

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A catalog with the Berlin-like shape, built through the checker itself
   (create statements register their definitions). *)
let base_ddl =
  {|
create table Products(id varchar(10), label varchar(20), producer varchar(10),
                      price float, added date)
create table Producers(id varchar(10), country varchar(10))
create table Reviews(id varchar(10), reviewFor varchar(10), rating integer)
create vertex ProductVtx(id) from table Products
create vertex ProducerVtx(id) from table Producers
create vertex ReviewVtx(id) from table Reviews
create edge producer with vertices (ProductVtx, ProducerVtx)
  where ProductVtx.producer = ProducerVtx.id
create edge reviewFor with vertices (ReviewVtx, ProductVtx)
  where ReviewVtx.reviewFor = ProductVtx.id
|}

let run_check ?(params = []) extra =
  let meta = Meta.create () in
  Typecheck.check_script ~params meta (Parser.parse_script (base_ddl ^ "\n" ^ extra))

let errors_of diags = List.map (fun d -> d.Diag.message) (Diag.errors diags)

let expect_clean extra =
  let diags = run_check extra in
  if Diag.has_errors diags then
    Alcotest.failf "unexpected errors: %s"
      (String.concat "; " (errors_of diags))

let expect_error_containing extra fragment =
  let diags = run_check extra in
  let msgs = errors_of diags in
  if
    not
      (List.exists
         (fun m ->
           let rec contains i =
             i + String.length fragment <= String.length m
             && (String.sub m i (String.length fragment) = fragment
                || contains (i + 1))
           in
           contains 0)
         msgs)
  then
    Alcotest.failf "no error containing %S among [%s]" fragment
      (String.concat "; " msgs)

(* ------------------------------------------------------------------ *)
(* The paper's own examples                                            *)

let test_clean_schema () = expect_clean ""

let test_date_vs_float () =
  (* "comparing a date to a floating-point number" *)
  expect_error_containing "select id from table Products where added > 1.5"
    "cannot compare"

let test_date_vs_int_in_path () =
  expect_error_containing
    "select ProductVtx.id from graph ProductVtx (added = 7) into table X"
    "cannot compare"

let test_date_vs_string_ok () =
  (* Date literals are written as strings; this must pass. *)
  expect_clean "select id from table Products where added > '2008-01-01'"

let test_vertex_where_table_required () =
  (* "a table name should be used when a table is required, rather than a
     vertex type name" *)
  expect_error_containing "select id from table ProductVtx" "is not a table";
  expect_error_containing "ingest table ProductVtx x.csv" "is not a table";
  expect_error_containing
    "create vertex V2(id) from table ProductVtx" "is not a table"

let test_table_where_vertex_required () =
  expect_error_containing
    "select * from graph Products --producer--> ProducerVtx into subgraph G"
    "is not a vertex type";
  expect_error_containing
    "create edge e2 with vertices (Products, ProducerVtx) where Products.id = ProducerVtx.id"
    "is not a vertex type"

let test_unknown_entities () =
  expect_error_containing "select id from table Nope" "no such table";
  expect_error_containing
    "select * from graph NopeVtx --producer--> ProducerVtx into subgraph G"
    "no such vertex type";
  expect_error_containing
    "select * from graph ProductVtx --nope--> ProducerVtx into subgraph G"
    "no such edge type"

(* ------------------------------------------------------------------ *)
(* Path well-formedness                                                *)

let test_edge_direction_mismatch () =
  (* producer goes Product -> Producer; using it the wrong way round. *)
  expect_error_containing
    "select * from graph ProducerVtx --producer--> ProductVtx into subgraph G"
    "but the path has";
  (* correct direction via in-edge is fine *)
  expect_clean
    "select * from graph ProducerVtx <--producer-- ProductVtx into subgraph G"

let test_conditions_on_variant_steps () =
  expect_error_containing
    "select * from graph ProductVtx <--[ ](rating = 1)-- [ ] into subgraph G"
    "not allowed on type-matching";
  expect_error_containing
    "select * from graph ProductVtx <--[ ]-- [ ] (rating = 1) into subgraph G"
    "not allowed on type-matching"

let test_unknown_attribute_in_condition () =
  expect_error_containing
    "select * from graph ProductVtx (zzz = 1) into subgraph G"
    "has no attribute";
  expect_error_containing
    "select id from table Products where zzz = 1" "unknown column"

let test_label_scoping () =
  (* Reference before definition / unlabeled cross-step reference. *)
  expect_error_containing
    "select * from graph ProductVtx (id = nolabel.id) into subgraph G"
    "unknown qualifier";
  (* Cross-step by type name needs a label *)
  expect_error_containing
    {|select * from graph ProductVtx --producer--> ProducerVtx (id = ProductVtx.producer)
      into subgraph G|}
    "label it";
  (* Proper label reference passes *)
  expect_clean
    {|select * from graph def p: ProductVtx ( ) --producer-->
        ProducerVtx (id = p.producer) into subgraph G|}

let test_edge_labels () =
  (* Conditions and targets may reference edge labels... *)
  expect_clean
    {|select E.id as eid from graph ReviewVtx ( ) --def E: reviewFor-->
        ProductVtx (id = E.reviewFor) into table T|};
  (* ...but an edge label is not a step. *)
  expect_error_containing
    {|select * from graph ReviewVtx --def E: reviewFor--> ProductVtx
        --producer--> E into subgraph G|}
    "labels an edge";
  expect_error_containing
    {|select * from graph def E: ReviewVtx --def E: reviewFor--> ProductVtx
        into subgraph G|}
    "already defined"

let test_duplicate_label () =
  expect_error_containing
    {|select * from graph def x: ProductVtx --producer--> def x: ProducerVtx
      into subgraph G|}
    "already defined"

let test_and_requires_shared_label () =
  expect_error_containing
    {|select * from graph (ProductVtx --producer--> ProducerVtx)
      and (ReviewVtx --reviewFor--> ProductVtx) into subgraph G|}
    "shared label";
  expect_clean
    {|select * from graph (def p: ProductVtx --producer--> ProducerVtx)
      and (ReviewVtx --reviewFor--> p) into subgraph G|}

let test_contradiction_warnings () =
  let warn_count extra = List.length (Diag.warnings (run_check extra)) in
  (* numeric interval contradiction *)
  check "x>5 and x<3 warns" true
    (warn_count
       "select id from table Products where price > 5 and price < 3"
    >= 1);
  (* equality vs bound *)
  check "eq outside bound warns" true
    (warn_count
       "select id from table Products where price = 10 and price < 5"
    >= 1);
  (* conflicting string equalities *)
  check "two string eqs warn" true
    (warn_count
       "select id from table Products where id = 'a' and id = 'b'"
    >= 1);
  (* satisfiable ranges stay silent *)
  check "x>3 and x<5 ok" true
    (warn_count
       "select id from table Products where price > 3 and price < 5"
    = 0);
  (* boundary: x >= 5 and x <= 5 is satisfiable; x > 5 and x <= 5 is not *)
  check "closed point ok" true
    (warn_count
       "select id from table Products where price >= 5 and price <= 5"
    = 0);
  check "half-open point warns" true
    (warn_count
       "select id from table Products where price > 5 and price <= 5"
    >= 1);
  (* per-attribute tracking: different attrs don't interact *)
  check "different attrs ok" true
    (warn_count
       "select id from table Products where price > 5 and rating < 3"
    = 0);
  (* contradictions inside a path step condition *)
  check "path step contradiction warns" true
    (warn_count
       {|select * from graph ProductVtx (price > 9 and price < 1)
           --producer--> ProducerVtx into subgraph G|}
    >= 1)

let test_variant_step_feasibility_warning () =
  (* No edge type connects Producer -> Review: warning, not error. *)
  let diags =
    run_check
      "select * from graph ProducerVtx --[ ]--> ReviewVtx into subgraph G"
  in
  check "no errors" false (Diag.has_errors diags);
  check_int "one warning" 1 (List.length (Diag.warnings diags))

(* ------------------------------------------------------------------ *)
(* Table select checking                                               *)

let test_group_by_discipline () =
  expect_error_containing
    "select label, count(*) as n from table Products group by id"
    "must appear in group by";
  expect_clean
    "select id, count(*) as n from table Products group by id order by n desc"

let test_aggregate_misuse () =
  expect_error_containing "select sum(*) as s from table Products" "only count(*)";
  expect_error_containing "select frob(id) as x from table Products"
    "unknown aggregate";
  expect_error_containing
    "select id from table Products where count(*) > 1" "not allowed in this context"

let test_top_positive () =
  expect_error_containing "select top 0 id from table Products" "must be positive"

let test_table_select_into_subgraph () =
  expect_error_containing "select id from table Products into subgraph G"
    "cannot produce a subgraph"

let test_param_typing () =
  (* Bound parameter with wrong type. *)
  let diags =
    run_check ~params:[ ("P", Graql_lang.Ast.L_float 1.5) ]
      "select id from table Products where added = %P%"
  in
  check "typed param error" true (Diag.has_errors diags);
  (* Unbound parameter: unknown type, no error. *)
  expect_clean "select id from table Products where added = %Unbound%"

let test_duplicate_entity () =
  expect_error_containing "create table Products(id integer)" "already declared";
  expect_error_containing
    "create vertex ProductVtx(id) from table Products" "already declared"

let test_result_registration_flows () =
  (* A result table registered by one statement is queryable by the next,
     with its inferred schema checked. *)
  expect_clean
    {|select ProductVtx.id from graph ProductVtx --producer--> ProducerVtx into table R
      select id, count(*) as n from table R group by id|};
  expect_error_containing
    {|select ProductVtx.id from graph ProductVtx --producer--> ProducerVtx into table R
      select nope from table R|}
    "unknown column"

let test_subgraph_seed_checked () =
  expect_clean
    {|select * from graph ProductVtx --producer--> ProducerVtx into subgraph S
      select * from graph S.ProductVtx ( ) --producer--> ProducerVtx into subgraph S2|};
  expect_error_containing
    "select * from graph NoSuch.ProductVtx ( ) into subgraph G"
    "no such subgraph"

let test_select_targets_checked () =
  expect_error_containing
    {|select ProducerVtx.id from graph ProductVtx --producer--> ProducerVtx ( )
        into subgraph G
      select * from table Products where id = 1 and label = 2|}
    "cannot compare";
  (* subgraph targets must be steps *)
  expect_error_containing
    {|select ReviewVtx from graph ProductVtx --producer--> ProducerVtx
        into subgraph G|}
    "not a step of this query"

(* A database's snapshot is shared by every statement checked against it:
   the checker registers a script's own definitions in a copy, so checking
   the same script twice gives the same answer and leaves the snapshot as
   it was. *)
let test_check_leaves_snapshot () =
  let module Db = Graql_engine.Db in
  let db = Db.create () in
  Graql_engine.Ddl_exec.install db;
  ignore (Graql_engine.Script_exec.exec_script db (Parser.parse_script base_ddl));
  let meta = Db.meta db in
  let before = Meta.names meta in
  let script =
    Parser.parse_script
      {|
create table Shops(id varchar(10), product varchar(10))
create vertex ShopVtx(id) from table Shops
create edge sells with vertices (ShopVtx, ProductVtx)
  where ShopVtx.product = ProductVtx.id
select id, product from table Shops into table ShopCopy
select * from graph ShopVtx --sells--> ProductVtx into subgraph Sold
select s.id from table ShopCopy as s
|}
  in
  let render diags = List.map Diag.to_string diags in
  let first = render (Typecheck.check_script meta script) in
  let second = render (Typecheck.check_script meta script) in
  Alcotest.(check (list string)) "first check is clean" [] first;
  Alcotest.(check (list string)) "same diagnostics twice" first second;
  Alcotest.(check (list string)) "snapshot names unchanged" before
    (Meta.names meta);
  check "the snapshot is still the database's" true (Db.meta db == meta)

let () =
  Alcotest.run "analysis"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "clean schema" `Quick test_clean_schema;
          Alcotest.test_case "date vs float" `Quick test_date_vs_float;
          Alcotest.test_case "date vs int in path" `Quick test_date_vs_int_in_path;
          Alcotest.test_case "date vs string ok" `Quick test_date_vs_string_ok;
          Alcotest.test_case "vertex where table required" `Quick
            test_vertex_where_table_required;
          Alcotest.test_case "table where vertex required" `Quick
            test_table_where_vertex_required;
          Alcotest.test_case "unknown entities" `Quick test_unknown_entities;
        ] );
      ( "paths",
        [
          Alcotest.test_case "edge direction" `Quick test_edge_direction_mismatch;
          Alcotest.test_case "variant-step conditions" `Quick
            test_conditions_on_variant_steps;
          Alcotest.test_case "unknown attribute" `Quick
            test_unknown_attribute_in_condition;
          Alcotest.test_case "label scoping" `Quick test_label_scoping;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
          Alcotest.test_case "edge labels" `Quick test_edge_labels;
          Alcotest.test_case "and needs shared label" `Quick
            test_and_requires_shared_label;
          Alcotest.test_case "variant feasibility warning" `Quick
            test_variant_step_feasibility_warning;
          Alcotest.test_case "contradiction warnings" `Quick
            test_contradiction_warnings;
        ] );
      ( "table-selects",
        [
          Alcotest.test_case "group by discipline" `Quick test_group_by_discipline;
          Alcotest.test_case "aggregate misuse" `Quick test_aggregate_misuse;
          Alcotest.test_case "top must be positive" `Quick test_top_positive;
          Alcotest.test_case "into subgraph rejected" `Quick
            test_table_select_into_subgraph;
          Alcotest.test_case "parameter typing" `Quick test_param_typing;
        ] );
      ( "registration",
        [
          Alcotest.test_case "duplicate entity" `Quick test_duplicate_entity;
          Alcotest.test_case "result tables flow" `Quick test_result_registration_flows;
          Alcotest.test_case "subgraph seeds" `Quick test_subgraph_seed_checked;
          Alcotest.test_case "select targets" `Quick test_select_targets_checked;
          Alcotest.test_case "checking leaves the snapshot" `Quick
            test_check_leaves_snapshot;
        ] );
    ]
