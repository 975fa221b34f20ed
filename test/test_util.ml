module Bitset = Graql_util.Bitset
module Int_vec = Graql_util.Int_vec
module Rng = Graql_util.Rng
module Topk = Graql_util.Topk
module Intern = Graql_util.Intern
module Text_table = Graql_util.Text_table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check "fresh is empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  check_int "cardinal" 4 (Bitset.cardinal b);
  check "mem 63" true (Bitset.mem b 63);
  check "not mem 62" false (Bitset.mem b 62);
  Bitset.clear b 63;
  check "cleared" false (Bitset.mem b 63);
  check_int "cardinal after clear" 3 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set out of bounds" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem b (-1)))

let test_bitset_full () =
  let b = Bitset.create_full 13 in
  check_int "all set" 13 (Bitset.cardinal b);
  check_list "iter order" (List.init 13 Fun.id) (Bitset.to_list b);
  Bitset.fill b false;
  check "emptied" true (Bitset.is_empty b)

let test_bitset_ops () =
  let a = Bitset.of_list 20 [ 1; 5; 9; 19 ] in
  let b = Bitset.of_list 20 [ 5; 6; 19 ] in
  let u = Bitset.copy a in
  Bitset.union_into u b;
  check_list "union" [ 1; 5; 6; 9; 19 ] (Bitset.to_list u);
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  check_list "inter" [ 5; 19 ] (Bitset.to_list i);
  let d = Bitset.copy a in
  Bitset.diff_into d b;
  check_list "diff" [ 1; 9 ] (Bitset.to_list d);
  Alcotest.check_raises "domain mismatch" (Invalid_argument "Bitset: domain mismatch")
    (fun () -> Bitset.union_into (Bitset.create 10) b)

let test_bitset_choose () =
  check "choose empty" true (Bitset.choose (Bitset.create 5) = None);
  check "choose smallest" true
    (Bitset.choose (Bitset.of_list 40 [ 17; 3; 38 ]) = Some 3)

let test_bitset_zero_len () =
  let b = Bitset.create 0 in
  check "empty domain" true (Bitset.is_empty b);
  check_int "cardinal" 0 (Bitset.cardinal b)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches set model" ~count:200
    QCheck.(list (pair (int_bound 199) bool))
    (fun ops ->
      let b = Bitset.create 200 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, on) ->
          Bitset.assign b i on;
          if on then Hashtbl.replace model i () else Hashtbl.remove model i)
        ops;
      let expect = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) model []) in
      Bitset.to_list b = expect && Bitset.cardinal b = List.length expect)

(* ------------------------------------------------------------------ *)
(* Int_vec                                                             *)

let test_int_vec () =
  let v = Int_vec.create () in
  for i = 0 to 99 do Int_vec.push v (i * 3) done;
  check_int "length" 100 (Int_vec.length v);
  check_int "get 42" 126 (Int_vec.get v 42);
  Int_vec.set v 42 0;
  check_int "set/get" 0 (Int_vec.get v 42);
  check_int "to_array length" 100 (Array.length (Int_vec.to_array v));
  Int_vec.clear v;
  check_int "cleared" 0 (Int_vec.length v)

let test_int_vec_append_sort () =
  let a = Int_vec.of_array [| 5; 3; 5; 1 |] in
  let b = Int_vec.of_array [| 3; 9 |] in
  Int_vec.append a b;
  check_int "appended length" 6 (Int_vec.length a);
  let u = Int_vec.sort_unique a in
  check_list "sort_unique" [ 1; 3; 5; 9 ] (Array.to_list (Int_vec.to_array u))

let test_int_vec_bounds () =
  let v = Int_vec.of_array [| 1 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Int_vec: out of bounds")
    (fun () -> ignore (Int_vec.get v 1))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.make 123 and b = Rng.make 123 in
  let seq r = List.init 50 (fun _ -> Rng.int r 1000) in
  check "same seed, same stream" true (seq a = seq b);
  let c = Rng.make 124 in
  check "different seed differs" false (seq (Rng.make 123) = seq c)

let test_rng_bounds () =
  let r = Rng.make 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in r (-5) 5 in
    if x < -5 || x > 5 then Alcotest.fail "Rng.int_in out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_split_independent () =
  let parent = Rng.make 9 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let s1 = List.init 20 (fun _ -> Rng.int c1 100) in
  let s2 = List.init 20 (fun _ -> Rng.int c2 100) in
  check "split streams differ" false (s1 = s2)

let test_rng_zipf () =
  let r = Rng.make 3 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let k = Rng.zipf r ~n:10 ~s:1.2 in
    if k < 0 || k >= 10 then Alcotest.fail "zipf out of range";
    counts.(k) <- counts.(k) + 1
  done;
  check "rank 0 most frequent" true (counts.(0) > counts.(5));
  check "rank 0 dominates tail" true (counts.(0) > counts.(9) * 2)

let test_rng_shuffle_permutation () =
  let r = Rng.make 77 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check "shuffle is a permutation" true (sorted = Array.init 30 Fun.id)

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)

let test_topk_basic () =
  let t = Topk.create ~k:3 ~cmp:compare in
  List.iter (Topk.add t) [ 5; 1; 9; 3; 7; 2 ];
  check_list "keeps 3 largest desc" [ 9; 7; 5 ] (Topk.to_sorted_list t)

let test_topk_fewer_than_k () =
  let t = Topk.create ~k:10 ~cmp:compare in
  List.iter (Topk.add t) [ 2; 1 ];
  check_list "all kept" [ 2; 1 ] (Topk.to_sorted_list t)

let test_topk_zero () =
  let t = Topk.create ~k:0 ~cmp:compare in
  Topk.add t 1;
  check_int "k=0 keeps nothing" 0 (Topk.length t)

let prop_topk_matches_sort =
  QCheck.Test.make ~name:"topk = take k of sorted" ~count:200
    QCheck.(pair (int_bound 20) (list small_int))
    (fun (k, l) ->
      let t = Topk.create ~k ~cmp:compare in
      List.iter (Topk.add t) l;
      let expect =
        List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) l)
      in
      (* Equal elements are interchangeable; compare as multisets via sort *)
      List.sort compare (Topk.to_sorted_list t) = List.sort compare expect)

(* ------------------------------------------------------------------ *)
(* Intern                                                              *)

let test_intern () =
  let p = Intern.create () in
  let a = Intern.intern p "hello" in
  let b = Intern.intern p "world" in
  let a' = Intern.intern p "hello" in
  check_int "stable id" a a';
  check "distinct ids" true (a <> b);
  Alcotest.(check string) "lookup" "world" (Intern.lookup p b);
  check_int "size" 2 (Intern.size p);
  check "find_opt hit" true (Intern.find_opt p "hello" = Some a);
  check "find_opt miss" true (Intern.find_opt p "nope" = None);
  Alcotest.check_raises "lookup oob" (Invalid_argument "Intern.lookup")
    (fun () -> ignore (Intern.lookup p 99))

let test_intern_many () =
  let p = Intern.create () in
  let ids = List.init 1000 (fun i -> Intern.intern p (string_of_int i)) in
  check_list "dense ids" (List.init 1000 Fun.id) ids;
  check "round trips" true
    (List.for_all (fun i -> Intern.lookup p i = string_of_int i)
       (List.init 1000 Fun.id));
  (* Ingest's pattern: reserve a little more before each batch of interns;
     ids and lookups stay stable across the growth. *)
  let q = Intern.create () in
  let ids =
    List.init 1000 (fun i ->
        if i mod 7 = 0 then Intern.reserve q (i + 3);
        Intern.intern q (string_of_int i))
  in
  check_list "dense ids across reserves" (List.init 1000 Fun.id) ids;
  check "stable across reserves" true
    (List.for_all
       (fun i ->
         Intern.lookup q i = string_of_int i
         && Intern.find_opt q (string_of_int i) = Some i
         && Intern.intern q (string_of_int i) = i)
       (List.init 1000 Fun.id));
  check_int "no id added by re-interning" 1000 (Intern.size q)

(* ------------------------------------------------------------------ *)
(* Text_table                                                          *)

let test_text_table () =
  let s =
    Text_table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check "contains header" true
    (String.length s > 0 && String.length (List.nth (String.split_on_char '\n' s) 1) > 0);
  let lines = String.split_on_char '\n' s in
  check_int "6 lines" 6 (List.length lines);
  let widths = List.map String.length lines in
  check "all lines same width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_text_table_align () =
  let s =
    Text_table.render
      ~aligns:[| Text_table.Left; Text_table.Right |]
      ~header:[ "x"; "num" ]
      [ [ "a"; "1" ] ]
  in
  check "right aligned" true
    (let lines = String.split_on_char '\n' s in
     let data = List.nth lines 3 in
     (* "| a | ... 1 |" — the 1 hugs the right separator *)
     String.length data > 0
     && data.[String.length data - 3] = '1')

let () =
  Alcotest.run "util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "full/fill" `Quick test_bitset_full;
          Alcotest.test_case "set ops" `Quick test_bitset_ops;
          Alcotest.test_case "choose" `Quick test_bitset_choose;
          Alcotest.test_case "zero length" `Quick test_bitset_zero_len;
          QCheck_alcotest.to_alcotest prop_bitset_model;
        ] );
      ( "int_vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_int_vec;
          Alcotest.test_case "append/sort_unique" `Quick test_int_vec_append_sort;
          Alcotest.test_case "bounds" `Quick test_int_vec_bounds;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "topk",
        [
          Alcotest.test_case "basic" `Quick test_topk_basic;
          Alcotest.test_case "fewer than k" `Quick test_topk_fewer_than_k;
          Alcotest.test_case "k = 0" `Quick test_topk_zero;
          QCheck_alcotest.to_alcotest prop_topk_matches_sort;
        ] );
      ( "intern",
        [
          Alcotest.test_case "basic" `Quick test_intern;
          Alcotest.test_case "many strings" `Quick test_intern_many;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_text_table;
          Alcotest.test_case "alignment" `Quick test_text_table_align;
        ] );
    ]
