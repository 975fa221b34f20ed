module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Token = Graql_lang.Token
module Lexer = Graql_lang.Lexer
module Parser = Graql_lang.Parser
module Pretty = Graql_lang.Pretty
module Dtype = Graql_storage.Dtype

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tokens src = List.map fst (Lexer.tokenize src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let test_lex_arrows () =
  check "out arrow pieces" true
    (tokens "--feature-->"
    = [ Token.DASHDASH; Token.IDENT "feature"; Token.DASHDASHGT; Token.EOF ]);
  check "in arrow pieces" true
    (tokens "<--rev--"
    = [ Token.LTDASHDASH; Token.IDENT "rev"; Token.DASHDASH; Token.EOF ]);
  check "minus still minus" true
    (tokens "a - 1" = [ Token.IDENT "a"; Token.MINUS; Token.INT 1; Token.EOF ]);
  check "lt vs in-arrow" true
    (tokens "a < b" = [ Token.IDENT "a"; Token.LT; Token.IDENT "b"; Token.EOF ])

let test_lex_params () =
  check "param token" true (tokens "%Product1%" = [ Token.PARAM "Product1"; Token.EOF ]);
  check "modulo fallback" true
    (tokens "a % b" = [ Token.IDENT "a"; Token.PERCENT; Token.IDENT "b"; Token.EOF ])

let test_lex_literals () =
  check "ints floats" true (tokens "1 2.5" = [ Token.INT 1; Token.FLOAT 2.5; Token.EOF ]);
  check "single-quoted" true (tokens "'it''s'" = [ Token.STRING "it's"; Token.EOF ]);
  check "double-quoted" true (tokens "\"hi\"" = [ Token.STRING "hi"; Token.EOF ]);
  check "escapes" true (tokens "'a\\nb'" = [ Token.STRING "a\nb"; Token.EOF ])

let test_lex_comments () =
  check "line comment" true
    (tokens "a // hello\nb" = [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ]);
  check "block comment" true
    (tokens "a /* x\ny */ b" = [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ])

let test_lex_comparison_ops () =
  check "ne forms" true (tokens "!= <>" = [ Token.NE; Token.NE; Token.EOF ]);
  check "le ge" true (tokens "<= >=" = [ Token.LE; Token.GE; Token.EOF ])

let test_lex_errors () =
  (match Lexer.tokenize "'unterminated" with
  | _ -> Alcotest.fail "expected error"
  | exception Loc.Syntax_error (_, msg) ->
      check "message" true (msg = "unterminated string literal"));
  match Lexer.tokenize "@" with
  | _ -> Alcotest.fail "expected error"
  | exception Loc.Syntax_error (loc, _) -> check_int "column" 1 loc.Loc.col

let test_lex_positions () =
  let toks = Lexer.tokenize "ab\n  cd" in
  match toks with
  | [ (_, l1); (_, l2); _ ] ->
      check_int "line 1" 1 l1.Loc.line;
      check_int "line 2" 2 l2.Loc.line;
      check_int "col 3" 3 l2.Loc.col
  | _ -> Alcotest.fail "token count"

(* ------------------------------------------------------------------ *)
(* Parser: DDL                                                         *)

let test_parse_create_table () =
  match
    Parser.parse_statement
      "create table T(id varchar(10), n integer, f float, d date, b boolean)"
  with
  | Ast.Create_table { ct_name; ct_cols; _ } ->
      check_str "name" "T" ct_name;
      check_int "cols" 5 (List.length ct_cols);
      check "types" true
        (List.map (fun c -> c.Ast.cd_type) ct_cols
        = [ Dtype.Varchar 10; Dtype.Int; Dtype.Float; Dtype.Date; Dtype.Bool ])
  | _ -> Alcotest.fail "wrong statement"

let test_parse_create_vertex () =
  match
    Parser.parse_statement
      "create vertex V(id, country) from table T where score > 3"
  with
  | Ast.Create_vertex { cv_name; cv_key; cv_from; cv_where; _ } ->
      check_str "name" "V" cv_name;
      check "keys" true (cv_key = [ "id"; "country" ]);
      check_str "from" "T" cv_from;
      check "where present" true (cv_where <> None)
  | _ -> Alcotest.fail "wrong statement"

let test_parse_create_edge_aliases () =
  match
    Parser.parse_statement
      "create edge subclass with vertices (TypeVtx as A, TypeVtx as B) where A.subclassOf = B.id"
  with
  | Ast.Create_edge { ce_src; ce_dst; ce_from; _ } ->
      check "src alias" true (ce_src.Ast.ve_alias = Some "A");
      check "dst alias" true (ce_dst.Ast.ve_alias = Some "B");
      check "no assoc" true (ce_from = None)
  | _ -> Alcotest.fail "wrong statement"

let test_parse_create_edge_from_table () =
  match
    Parser.parse_statement
      "create edge t with vertices (A, B) from table R where R.x = A.id and R.y = B.id"
  with
  | Ast.Create_edge { ce_from; ce_where; _ } ->
      check "assoc" true (ce_from = Some "R");
      check "where is conjunction" true
        (match ce_where with
        | Some (Ast.E_binop (Ast.And, _, _, _)) -> true
        | _ -> false)
  | _ -> Alcotest.fail "wrong statement"

let test_parse_ingest () =
  (match Parser.parse_statement "ingest table Products products.csv" with
  | Ast.Ingest { ing_table; ing_file; _ } ->
      check_str "table" "Products" ing_table;
      check_str "file" "products.csv" ing_file
  | _ -> Alcotest.fail "wrong statement");
  match Parser.parse_statement "ingest table T 'dir with space/f.csv'" with
  | Ast.Ingest { ing_file; _ } ->
      check_str "quoted file" "dir with space/f.csv" ing_file
  | _ -> Alcotest.fail "wrong statement"

let test_parse_set_param () =
  match Parser.parse_statement "set %P% = 'x'" with
  | Ast.Set_param { sp_name; sp_value; _ } ->
      check_str "name" "P" sp_name;
      check "value" true (sp_value = Ast.L_string "x")
  | _ -> Alcotest.fail "wrong statement"

(* ------------------------------------------------------------------ *)
(* Parser: graph selects                                               *)

let parse_graph src =
  match Parser.parse_statement src with
  | Ast.Select_graph sg -> sg
  | _ -> Alcotest.fail "expected graph select"

let path_of = function
  | Ast.M_path p -> p
  | _ -> Alcotest.fail "expected simple path"

let test_parse_path_basic () =
  let sg =
    parse_graph
      "select y.id from graph A (x = 1) --e--> def y: B ( ) <--f-- C into table T"
  in
  let p = path_of sg.Ast.sg_path in
  check "head name" true (p.Ast.head.Ast.v_kind = Ast.V_named "A");
  check "head cond" true (p.Ast.head.Ast.v_cond <> None);
  check_int "segments" 2 (List.length p.Ast.segments);
  (match p.Ast.segments with
  | [ Ast.Seg_step (e1, v1); Ast.Seg_step (e2, _) ] ->
      check "e1 out" true (e1.Ast.e_dir = Ast.Out);
      check "label" true (v1.Ast.v_label = Some (Ast.Set_label "y"));
      check "empty parens = no cond" true (v1.Ast.v_cond = None);
      check "e2 in" true (e2.Ast.e_dir = Ast.In)
  | _ -> Alcotest.fail "segments shape");
  check "into" true (sg.Ast.sg_into = Ast.Into_table "T")

let test_parse_foreach_label () =
  let sg =
    parse_graph "select * from graph A ( ) --e--> foreach x: B ( ) into subgraph G"
  in
  let p = path_of sg.Ast.sg_path in
  match p.Ast.segments with
  | [ Ast.Seg_step (_, v) ] ->
      check "foreach" true (v.Ast.v_label = Some (Ast.Each_label "x"))
  | _ -> Alcotest.fail "shape"

let test_parse_type_matching () =
  let sg = parse_graph "select * from graph A (id = 1) <--[ ]-- [ ] into subgraph G" in
  let p = path_of sg.Ast.sg_path in
  match p.Ast.segments with
  | [ Ast.Seg_step (e, v) ] ->
      check "edge any" true (e.Ast.e_kind = Ast.E_any);
      check "edge in" true (e.Ast.e_dir = Ast.In);
      check "vertex any" true (v.Ast.v_kind = Ast.V_any)
  | _ -> Alcotest.fail "shape"

let test_parse_regex () =
  let sg =
    parse_graph
      "select * from graph A ( ) ( --[ ]--> [ ] )+ --e--> B ( --f--> C ){3} into subgraph G"
  in
  let p = path_of sg.Ast.sg_path in
  match p.Ast.segments with
  | [
   Ast.Seg_regex (body1, Ast.Rx_plus, _);
   Ast.Seg_step _;
   Ast.Seg_regex (body2, Ast.Rx_count 3, _);
  ] ->
      check_int "body1 pairs" 1 (List.length body1);
      check_int "body2 pairs" 1 (List.length body2)
  | _ -> Alcotest.fail "regex shape"

let test_parse_regex_star () =
  let sg = parse_graph "select * from graph A ( --e--> B )* into subgraph G" in
  let p = path_of sg.Ast.sg_path in
  match p.Ast.segments with
  | [ Ast.Seg_regex (_, Ast.Rx_star, _) ] -> ()
  | _ -> Alcotest.fail "star shape"

let test_parse_multipath () =
  let sg =
    parse_graph
      "select * from graph (A --e--> def y: B) and (y --f--> C) or D --g--> E into subgraph G"
  in
  match sg.Ast.sg_path with
  | Ast.M_or (Ast.M_and (_, _), Ast.M_path _) -> ()
  | _ -> Alcotest.fail "composition precedence"

let test_parse_seeded () =
  let sg = parse_graph "select * from graph res.V (a = 1) --e--> W into subgraph G" in
  let p = path_of sg.Ast.sg_path in
  check "seeded head" true (p.Ast.head.Ast.v_kind = Ast.V_seeded ("res", "V"))

let test_parse_edge_label () =
  let sg =
    parse_graph "select * from graph A --def E: e(w > 1)--> B into subgraph G"
  in
  let p = path_of sg.Ast.sg_path in
  (match p.Ast.segments with
  | [ Ast.Seg_step (e, _) ] ->
      check "edge label" true (e.Ast.e_label = Some (Ast.Set_label "E"));
      check "edge cond too" true (e.Ast.e_cond <> None)
  | _ -> Alcotest.fail "shape");
  let sg2 = parse_graph "select * from graph A <--foreach f: e-- B into subgraph G" in
  let p2 = path_of sg2.Ast.sg_path in
  match p2.Ast.segments with
  | [ Ast.Seg_step (e, _) ] ->
      check "foreach edge label" true (e.Ast.e_label = Some (Ast.Each_label "f"))
  | _ -> Alcotest.fail "shape"

let test_parse_edge_condition () =
  let sg = parse_graph "select * from graph A --e(w > 5)--> B into subgraph G" in
  let p = path_of sg.Ast.sg_path in
  match p.Ast.segments with
  | [ Ast.Seg_step (e, _) ] -> check "edge cond" true (e.Ast.e_cond <> None)
  | _ -> Alcotest.fail "shape"

(* ------------------------------------------------------------------ *)
(* Parser: table selects                                               *)

let parse_table src =
  match Parser.parse_statement src with
  | Ast.Select_table st -> st
  | _ -> Alcotest.fail "expected table select"

let test_parse_select_table_full () =
  let st =
    parse_table
      "select top 10 id, count(*) as groupCount from table T1 group by id order by groupCount desc"
  in
  check "top" true (st.Ast.st_top = Some 10);
  check_int "targets" 2 (List.length st.Ast.st_targets);
  check "group" true (st.Ast.st_group_by = [ (None, "id") ]);
  check_int "order" 1 (List.length st.Ast.st_order_by);
  check "desc" true (snd (List.hd st.Ast.st_order_by) = Ast.Desc)

let test_parse_select_distinct_star () =
  let st = parse_table "select distinct * from table T" in
  check "distinct" true st.Ast.st_distinct;
  check "star" true (st.Ast.st_targets = [ Ast.T_star ])

let test_parse_select_join () =
  let st = parse_table "select a.x from table A as a, B where a.k = B.k" in
  match st.Ast.st_from with
  | Ast.From_join ([ ("A", Some "a"); ("B", None) ], Some _) -> ()
  | _ -> Alcotest.fail "join sources"

let test_parse_expr_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3 = 7 and not x > 1 or y < 2" in
  check "or at top" true
    (match e with Ast.E_binop (Ast.Or, _, _, _) -> true | _ -> false);
  let e2 = Parser.parse_expr "a.b is not null" in
  check "is not null" true
    (match e2 with Ast.E_is_null (_, true, _) -> true | _ -> false);
  let e3 = Parser.parse_expr "name like 'a%'" in
  check "like" true
    (match e3 with Ast.E_binop (Ast.Like, _, _, _) -> true | _ -> false)

let test_parse_errors_positions () =
  (match Parser.parse_script "create table (" with
  | _ -> Alcotest.fail "expected error"
  | exception Loc.Syntax_error (loc, _) -> check_int "line" 1 loc.Loc.line);
  (match Parser.parse_script "select from graph" with
  | _ -> Alcotest.fail "expected error"
  | exception Loc.Syntax_error _ -> ());
  (match Parser.parse_script "select * from graph A --e--> into subgraph G" with
  | _ -> Alcotest.fail "expected error: arrow without vertex"
  | exception Loc.Syntax_error _ -> ());
  match Parser.parse_script "select * from graph [ ] (x = 1) -- into" with
  | _ -> Alcotest.fail "expected error"
  | exception Loc.Syntax_error _ -> ()

let test_parse_statement_trailing () =
  match Parser.parse_statement "set %A% = 1 set %B% = 2" with
  | _ -> Alcotest.fail "expected trailing error"
  | exception Loc.Syntax_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Pretty-printer round trips                                          *)

let corpus =
  [
    "create table Products (id varchar(10), price float, added date)";
    "create vertex ProductVtx(id) from table Products where (price > 10)";
    "create edge producer with vertices (ProductVtx, ProducerVtx) where \
     (ProductVtx.producer = ProducerVtx.id)";
    "create edge type with vertices (ProductVtx, TypeVtx) from table \
     ProductTypes where ((ProductTypes.product = ProductVtx.id) and \
     (ProductTypes.type = TypeVtx.id))";
    "ingest table Products 'products.csv'";
    "set %Product1% = 'p42'";
    "select y.id from graph ProductVtx ((id = %Product1%)) --feature--> def \
     x: FeatureVtx <--feature-- def y: ProductVtx ((id != %Product1%)) into \
     table T1";
    "select top 10 id, count(*) as groupCount from table T1 group by id \
     order by groupCount desc";
    "select * from graph VertexA ((x > 3)) ( --[ ]--> [ ] )+ --e--> VertexB \
     into subgraph resQ";
    "select * from graph resQ.Vn ((a = 1)) --e1--> V2 into subgraph resQ2";
    "select E.w as w from graph V1 --def E: e1((w > 2))--> V2 into table TW";
    "select * from graph (PersonVtx <--reviewer-- ReviewVtx) and (y \
     --type--> TypeVtx) into table T2";
    "select distinct a, b from table T where ((a is not null) and (b like \
     'x%')) order by a asc, b desc";
  ]

let test_pretty_roundtrip () =
  List.iter
    (fun src ->
      let ast1 = Parser.parse_script src in
      let printed = Pretty.script_to_string ast1 in
      let ast2 = Parser.parse_script printed in
      let p1 = Pretty.script_to_string ast1
      and p2 = Pretty.script_to_string ast2 in
      if p1 <> p2 then
        Alcotest.failf "roundtrip mismatch for %S:\n%s\nvs\n%s" src p1 p2)
    corpus

(* Random expression generator for parse∘print stability. *)
(* Lowercase identifiers that are not GraQL keywords: a generated [by] or
   [as] would parse back as syntax, not as a name. *)
let ident_gen max_len =
  let open QCheck.Gen in
  let keywords =
    [ "and"; "or"; "not"; "like"; "is"; "null"; "top"; "as"; "by"; "asc";
      "desc"; "def"; "set"; "from"; "into"; "with"; "true"; "false"; "edge";
      "graph"; "table"; "group"; "order"; "where" ]
  in
  map
    (fun s -> if List.mem s keywords then s ^ "x" else s)
    (string_size ~gen:(char_range 'a' 'z') (int_range 1 max_len))

let rec expr_gen depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun i -> Ast.E_lit (Ast.L_int i, Loc.dummy)) small_nat;
        map (fun b -> Ast.E_lit (Ast.L_bool b, Loc.dummy)) bool;
        return (Ast.E_lit (Ast.L_null, Loc.dummy));
        map
          (fun s -> Ast.E_lit (Ast.L_string s, Loc.dummy))
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 5));
        map
          (fun s -> Ast.E_param (s, Loc.dummy))
          (string_size ~gen:(char_range 'A' 'Z') (int_range 1 4));
        map
          (fun (q, a) -> Ast.E_attr (q, a, Loc.dummy))
          (pair (opt (ident_gen 4)) (ident_gen 5));
      ]
  else
    let sub = expr_gen (depth - 1) in
    oneof
      [
        expr_gen 0;
        map3
          (fun op a b -> Ast.E_binop (op, a, b, Loc.dummy))
          (oneofl
             [
               Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Add;
               Ast.Sub; Ast.Mul; Ast.Div; Ast.And; Ast.Or;
             ])
          sub sub;
        map (fun a -> Ast.E_unop (Ast.Not, a, Loc.dummy)) sub;
        map2 (fun a n -> Ast.E_is_null (a, n, Loc.dummy)) sub bool;
      ]

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr parse(print(e)) prints the same" ~count:300
    (QCheck.make ~print:Pretty.expr_to_string (expr_gen 3))
    (fun e ->
      let printed = Pretty.expr_to_string e in
      match Parser.parse_expr printed with
      | e2 -> Pretty.expr_to_string e2 = printed
      | exception Loc.Syntax_error _ -> false)

(* ------------------------------------------------------------------ *)
(* Fuzzing: whatever bytes arrive, the front end either parses them or
   raises the typed [Loc.Syntax_error] — no assertion failure, no
   [Not_found], no infinite loop. Seeded, so failures reproduce. *)

let fuzz_corpus =
  [
    "create table Users(id varchar(8), name varchar(16), age integer)\n\
     create vertex UserVtx(id) from table Users\n\
     create edge follows with vertices (UserVtx as A, UserVtx as B)\n\
    \  where A.id = B.id\n\
     ingest table Users users.csv";
    "set %Product1% = 'p42'\n\
     select B.id, count(*) from graph UserVtx (id = %Product1%)\n\
    \  --follows--> def B: UserVtx (age > 3 + 4 * 2) : true";
    "select distinct name, age from table Users : age >= 30 order by age desc";
    "foreach x: UserVtx ( ) ( --[ ]--> [ ] )+ into table T1";
  ]

let fuzz_accepts src =
  (match Lexer.tokenize src with
  | (_ : (Token.t * Loc.t) list) -> ()
  | exception Loc.Syntax_error _ -> ()
  | exception e ->
      Alcotest.failf "lexer leaked %s on %S" (Printexc.to_string e) src);
  match Parser.parse_script src with
  | (_ : Ast.stmt list) -> ()
  | exception Loc.Syntax_error _ -> ()
  | exception e ->
      Alcotest.failf "parser leaked %s on %S" (Printexc.to_string e) src

let test_fuzz_random_bytes () =
  let st = Random.State.make [| 0xbeef |] in
  for _ = 1 to 500 do
    let len = Random.State.int st 80 in
    fuzz_accepts (String.init len (fun _ -> Char.chr (Random.State.int st 256)))
  done

let test_fuzz_random_printable () =
  (* Printable soup hits the parser proper far more often than raw bytes,
     which mostly die in the lexer. *)
  let alphabet =
    "abz_09 .,;:()[]{}<>=!+-*/%'\"\n\t|&^#@~?\\createselectfromwheregraph"
  in
  let st = Random.State.make [| 0xf00d |] in
  for _ = 1 to 500 do
    let len = Random.State.int st 120 in
    fuzz_accepts
      (String.init len (fun _ ->
           alphabet.[Random.State.int st (String.length alphabet)]))
  done

let test_fuzz_truncations () =
  (* A crash can hand the parser any prefix of a valid script (e.g. a
     half-written file): every truncation must fail cleanly or parse. *)
  List.iter
    (fun src ->
      for len = 0 to String.length src - 1 do
        fuzz_accepts (String.sub src 0 len)
      done)
    fuzz_corpus

let test_fuzz_mutations () =
  let st = Random.State.make [| 0xcafe |] in
  List.iter
    (fun src ->
      for _ = 1 to 200 do
        let b = Bytes.of_string src in
        for _ = 0 to Random.State.int st 3 do
          Bytes.set b
            (Random.State.int st (Bytes.length b))
            (Char.chr (Random.State.int st 256))
        done;
        fuzz_accepts (Bytes.to_string b)
      done)
    fuzz_corpus

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "arrows" `Quick test_lex_arrows;
          Alcotest.test_case "params vs modulo" `Quick test_lex_params;
          Alcotest.test_case "literals" `Quick test_lex_literals;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "comparison ops" `Quick test_lex_comparison_ops;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "positions" `Quick test_lex_positions;
        ] );
      ( "ddl",
        [
          Alcotest.test_case "create table" `Quick test_parse_create_table;
          Alcotest.test_case "create vertex" `Quick test_parse_create_vertex;
          Alcotest.test_case "create edge aliases" `Quick test_parse_create_edge_aliases;
          Alcotest.test_case "create edge from table" `Quick
            test_parse_create_edge_from_table;
          Alcotest.test_case "ingest" `Quick test_parse_ingest;
          Alcotest.test_case "set param" `Quick test_parse_set_param;
        ] );
      ( "paths",
        [
          Alcotest.test_case "basic path" `Quick test_parse_path_basic;
          Alcotest.test_case "foreach label" `Quick test_parse_foreach_label;
          Alcotest.test_case "type matching" `Quick test_parse_type_matching;
          Alcotest.test_case "regex + and {n}" `Quick test_parse_regex;
          Alcotest.test_case "regex *" `Quick test_parse_regex_star;
          Alcotest.test_case "and/or precedence" `Quick test_parse_multipath;
          Alcotest.test_case "seeded head" `Quick test_parse_seeded;
          Alcotest.test_case "edge condition" `Quick test_parse_edge_condition;
          Alcotest.test_case "edge label" `Quick test_parse_edge_label;
        ] );
      ( "table-select",
        [
          Alcotest.test_case "full clause set" `Quick test_parse_select_table_full;
          Alcotest.test_case "distinct *" `Quick test_parse_select_distinct_star;
          Alcotest.test_case "join sources" `Quick test_parse_select_join;
          Alcotest.test_case "expr precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "error positions" `Quick test_parse_errors_positions;
          Alcotest.test_case "trailing input" `Quick test_parse_statement_trailing;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "corpus roundtrip" `Quick test_pretty_roundtrip;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random bytes" `Quick test_fuzz_random_bytes;
          Alcotest.test_case "printable soup" `Quick test_fuzz_random_printable;
          Alcotest.test_case "truncated scripts" `Quick test_fuzz_truncations;
          Alcotest.test_case "mutated scripts" `Quick test_fuzz_mutations;
        ] );
    ]
