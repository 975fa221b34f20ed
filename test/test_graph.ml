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

(* Everything a reader sees of a CSR: per vertex its (dst, eid) entries
   in iteration order and its degree, then the two counts. *)
let csr_view csr =
  ( Csr.nvertices csr,
    Csr.nedges csr,
    List.init (Csr.nvertices csr) (fun v ->
        (Csr.degree csr v, Array.to_list (Csr.neighbors csr v))) )

(* Edges [0, m) of arrays that may be longer, built from scratch. *)
let csr_prefix ~nvertices ~src ~dst m =
  Csr.build ~nvertices ~src:(Array.sub src 0 m) ~dst:(Array.sub dst 0 m) ()

(* A base batch, then batches (0 edges included) that may grow both
   vertex counts: small ones stay in the delta run, and the rest cross
   the fold point. *)
let gen_batches =
  QCheck.(
    pair (int_range 1 4)
      (list_of_size (Gen.int_range 1 25)
         (triple (int_bound 2) (int_bound 2)
            (list_of_size
               (Gen.frequency [ (6, Gen.int_bound 4); (1, Gen.int_bound 60) ])
               (pair small_nat small_nat)))))

let prop_append_chain =
  QCheck.Test.make ~name:"append chain = build over the concatenation" ~count:300
    gen_batches (fun (nv0, batches) ->
      let cap = 1 + List.fold_left (fun a (_, _, es) -> a + List.length es) 0 batches in
      (* Arrays with room past the edges, filled with ids no vertex has:
         an append must read only edges [0, nedges). *)
      let src = Array.make cap (-1) and dst = Array.make cap (-1) in
      let empty = Csr.build ~nvertices:nv0 ~src:[||] ~dst:[||] () in
      let _ =
        List.fold_left
          (fun (fwd, rev, ns, nd, m) (gs, gd, es) ->
            let ns = ns + gs and nd = nd + gd in
            List.iteri
              (fun i (a, b) ->
                src.(m + i) <- a mod ns;
                dst.(m + i) <- b mod nd)
              es;
            let m = m + List.length es in
            let fwd = Csr.append fwd ~nvertices:ns ~src ~dst ~nedges:m in
            let rev = Csr.append rev ~nvertices:nd ~src:dst ~dst:src ~nedges:m in
            if csr_view fwd <> csr_view (csr_prefix ~nvertices:ns ~src ~dst m) then
              QCheck.Test.fail_reportf "forward differs at %d edges" m;
            if csr_view rev <> csr_view (csr_prefix ~nvertices:nd ~src:dst ~dst:src m)
            then QCheck.Test.fail_reportf "reverse differs at %d edges" m;
            (fwd, rev, ns, nd, m))
          (empty, empty, nv0, nv0, 0) batches
      in
      true)

let test_append_out_of_range () =
  let raises what f =
    check what true (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let src = Array.init 100 (fun i -> i mod 10) and dst = Array.make 100 0 in
  let base = Csr.build ~nvertices:10 ~src ~dst () in
  let grown = Array.append src [| 10 |] and neg = Array.append src [| -1 |] in
  let dst' = Array.append dst [| 0 |] in
  raises "delta: past the vertices" (fun () ->
      Csr.append base ~nvertices:10 ~src:grown ~dst:dst' ~nedges:101);
  raises "delta: negative" (fun () ->
      Csr.append base ~nvertices:10 ~src:neg ~dst:dst' ~nedges:101);
  let none = Csr.build ~nvertices:10 ~src:[||] ~dst:[||] () in
  raises "fold: past the vertices" (fun () ->
      Csr.append none ~nvertices:10 ~src:[| 10 |] ~dst:[| 0 |] ~nedges:1);
  raises "fewer vertices" (fun () ->
      Csr.append base ~nvertices:9 ~src ~dst ~nedges:100);
  let grown_csr = Csr.append base ~nvertices:11 ~src:grown ~dst:dst' ~nedges:101 in
  check_int "in range appends" 101 (Csr.nedges grown_csr);
  List.iter
    (fun (what, csr, v) ->
      raises (what ^ ": degree") (fun () -> Csr.degree csr v);
      raises (what ^ ": iter_neighbors") (fun () ->
          Csr.iter_neighbors csr v (fun ~dst:_ ~eid:_ -> ())))
    [ ("base, negative", base, -1); ("base, past the vertices", base, 10);
      ("delta, negative", grown_csr, -1); ("delta, past the vertices", grown_csr, 11) ]

(* Edge and vertex views over shared arrays: extending one version twice
   (the second extension is not from the tip), and the tip again. *)
let no_rows = Table.create ~name:"D" (Schema.make [ col "x" Dtype.Int ])

let eset_extend e ~n edges =
  let src = Array.of_list (List.map (fun (a, _) -> a mod n) edges) in
  let dst = Array.of_list (List.map (fun (_, b) -> b mod n) edges) in
  Eset.extend e ~n_src_vertices:n ~n_dst_vertices:n ~src ~dst
    ~attr_rows:(Array.map (fun s -> s * 7) src)
    ~pair_level:(Hashtbl.create 1) ~rows_seen:0 ~dropped_src:0 ~dropped_dst:0

let eset_ok e ~n =
  let m = Eset.size e in
  let src = Array.init m (Eset.src e) and dst = Array.init m (Eset.dst e) in
  Array.for_all2 (fun s r -> r = s * 7) src (Array.init m (Eset.attr_row e))
  && csr_view (Eset.forward e) = csr_view (Csr.build ~nvertices:n ~src ~dst ())
  && csr_view (Eset.reverse e) = csr_view (Csr.build ~nvertices:n ~src:dst ~dst:src ())

let vset_extend v keys =
  let base = Vset.size v in
  let keys = Array.of_list (List.map (fun k -> [| vi k |]) keys) in
  let level = Hashtbl.create 8 in
  Array.iteri (fun i k -> Hashtbl.replace level (Vset.key_of_values k) (base + i)) keys;
  Vset.extend v ~keys ~key_level:level ~attr_table:no_rows
    ~attr_rows:(Array.mapi (fun i _ -> 3 * (base + i)) keys)
    ~one_to_one:true ~rows_seen:0

let vset_keys v = List.init (Vset.size v) (fun i -> (Vset.key_values v i, Vset.attr_row v i))

let prop_extend_twice =
  let edges = QCheck.(list_of_size (Gen.int_bound 40) (pair small_nat small_nat)) in
  QCheck.Test.make ~name:"extending one version twice leaves every version whole"
    ~count:200
    QCheck.(quad (list_of_size (Gen.int_range 1 4) edges) edges edges edges)
    (fun (chain, a, b, c) ->
      let n = 12 in
      let e0 = Eset.empty ~name:"e" ~src_type:"v" ~dst_type:"v" ~driving:no_rows
          ~keep_attrs:false ~dedupe:false in
      let base = List.fold_left (fun e es -> eset_extend e ~n es) e0 chain in
      let e1 = eset_extend base ~n a in
      let e2 = eset_extend base ~n b in
      let e3 = eset_extend e1 ~n c in
      let v0 = Vset.empty ~name:"v" ~key_schema:(Schema.make [ col "k" Dtype.Int ])
          ~source_table:no_rows in
      let key_run es off = List.mapi (fun i _ -> off + i) es in
      let vbase = List.fold_left (fun v es -> vset_extend v (key_run es (Vset.size v))) v0 chain in
      let vkeys = vset_keys vbase in
      let v1 = vset_extend vbase (key_run a 1000) in
      let v2 = vset_extend vbase (key_run b 2000) in
      let v3 = vset_extend v1 (key_run c 3000) in
      let prefix v = List.filteri (fun i _ -> i < Vset.size vbase) (vset_keys v) in
      List.for_all (eset_ok ~n) [ base; e1; e2; e3 ]
      && Eset.size e1 = Eset.size base + List.length a
      && Eset.size e2 = Eset.size base + List.length b
      && List.for_all (fun i -> Eset.src e2 (Eset.size base + i) = fst (List.nth b i) mod n)
           (List.init (List.length b) Fun.id)
      && vset_keys vbase = vkeys
      && List.for_all (fun v -> prefix v = vkeys) [ v1; v2; v3 ]
      && List.for_all
           (fun (v, keys) ->
             List.for_all
               (fun k -> Vset.find_by_key v [ vi k ] <> None
                         && Vset.key_values v (Option.get (Vset.find_by_key v [ vi k ])) = [| vi k |])
               keys)
           [ (v1, key_run a 1000); (v2, key_run b 2000); (v3, key_run a 1000 @ key_run c 3000) ])

let test_ids_past_size () =
  let raises what f =
    check what true (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let e0 = Eset.empty ~name:"e" ~src_type:"v" ~dst_type:"v" ~driving:no_rows
      ~keep_attrs:false ~dedupe:false in
  let ten = List.init 10 (fun i -> (i, i + 1)) in
  let e1 = eset_extend e0 ~n:20 ten in
  let e2 = eset_extend e1 ~n:20 [ (1, 2) ] in
  (* e2's arrays have room for 20 edges; e3 writes past e2's size. *)
  let _e3 = eset_extend e2 ~n:20 [ (3, 4) ] in
  check_int "e2 size" 11 (Eset.size e2);
  raises "Eset.src at size" (fun () -> Eset.src e2 11);
  raises "Eset.dst at size" (fun () -> Eset.dst e2 11);
  raises "Eset.attr_row at size" (fun () -> Eset.attr_row e2 11);
  raises "Eset.src past the capacity" (fun () -> Eset.src e2 25);
  raises "Eset.src negative" (fun () -> Eset.src e2 (-1));
  let v0 = Vset.empty ~name:"v" ~key_schema:(Schema.make [ col "k" Dtype.Int ])
      ~source_table:no_rows in
  let v1 = vset_extend v0 (List.init 10 Fun.id) in
  let v2 = vset_extend v1 [ 10 ] in
  let _v3 = vset_extend v2 [ 11 ] in
  check_int "v2 size" 11 (Vset.size v2);
  raises "Vset.key_values at size" (fun () -> Vset.key_values v2 11);
  raises "Vset.attr_row at size" (fun () -> Vset.attr_row v2 11);
  check "v2 does not find v3's key" true (Vset.find_by_key v2 [ vi 11 ] = None)

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
          QCheck_alcotest.to_alcotest prop_append_chain;
          Alcotest.test_case "append: vertex out of range" `Quick
            test_append_out_of_range;
          QCheck_alcotest.to_alcotest prop_extend_twice;
          Alcotest.test_case "ids past a version's size" `Quick test_ids_past_size;
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
