(* The heavyweight property test: the optimized path executor (CSR
   indices, planner reversal, eager projection) must agree with the
   brute-force reference matcher on randomly generated graphs and
   randomly generated well-formed paths — including labels in both
   flavours, both traversal directions, variant steps and conditions. *)

module Db = Graql_engine.Db
module Ddl_exec = Graql_engine.Ddl_exec
module Script_exec = Graql_engine.Script_exec
module Path_exec = Graql_engine.Path_exec
module Reference_exec = Graql_engine.Reference_exec
module Parser = Graql_lang.Parser
module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc

(* ------------------------------------------------------------------ *)
(* Random scenario                                                     *)

type scenario = {
  xa : int list;  (** attribute x per A vertex *)
  xb : int list;
  e_aa : (int * int) list;  (** A->A edges, with possible duplicates *)
  e_ab : (int * int) list;
  e_ba : (int * int) list;
  path : Ast.path;
}

let schema_script =
  {|
create table TA(id varchar(6), x integer)
create table TB(id varchar(6), x integer)
create table EAA(f varchar(6), t varchar(6), w integer)
create table EAB(f varchar(6), t varchar(6), w integer)
create table EBA(f varchar(6), t varchar(6), w integer)
create vertex A(id) from table TA
create vertex B(id) from table TB
create edge eaa with vertices (A as S, A as D) from table EAA
  where EAA.f = S.id and EAA.t = D.id
create edge eab with vertices (A, B) from table EAB
  where EAB.f = A.id and EAB.t = B.id
create edge eba with vertices (B, A) from table EBA
  where EBA.f = B.id and EBA.t = A.id
ingest table TA ta.csv
ingest table TB tb.csv
ingest table EAA eaa.csv
ingest table EAB eab.csv
ingest table EBA eba.csv
|}

let csv_vertices prefix xs =
  "id,x\n"
  ^ String.concat ""
      (List.mapi (fun i x -> Printf.sprintf "%s%d,%d\n" prefix i x) xs)

let csv_edges pf pt edges =
  "f,t,w\n"
  ^ String.concat ""
      (List.mapi
         (fun i (f, t) -> Printf.sprintf "%s%d,%s%d,%d\n" pf f pt t (i mod 5))
         edges)

let build_db s =
  let loader = function
    | "ta.csv" -> csv_vertices "a" s.xa
    | "tb.csv" -> csv_vertices "b" s.xb
    | "eaa.csv" -> csv_edges "a" "a" s.e_aa
    | "eab.csv" -> csv_edges "a" "b" s.e_ab
    | "eba.csv" -> csv_edges "b" "a" s.e_ba
    | f -> raise (Sys_error f)
  in
  let db = Db.create () in
  Ddl_exec.install db;
  ignore
    (Script_exec.exec_script ~loader ~parallel:false db
       (Parser.parse_script schema_script));
  db

(* Path generator: walk the schema graph A --eaa--> A --eab--> B --eba--> A
   choosing a valid (edge, direction) at each step. *)

let gen_cond =
  QCheck.Gen.(
    frequency
      [
        (2, return None);
        ( 1,
          map
            (fun c ->
              Some
                (Ast.E_binop
                   ( Ast.Gt,
                     Ast.E_attr (None, "x", Loc.dummy),
                     Ast.E_lit (Ast.L_int c, Loc.dummy),
                     Loc.dummy )))
            (int_bound 9) );
        ( 1,
          map
            (fun c ->
              Some
                (Ast.E_binop
                   ( Ast.Le,
                     Ast.E_attr (None, "x", Loc.dummy),
                     Ast.E_lit (Ast.L_int c, Loc.dummy),
                     Loc.dummy )))
            (int_bound 9) );
      ])

let gen_edge_cond =
  QCheck.Gen.(
    frequency
      [
        (3, return None);
        ( 1,
          map
            (fun c ->
              Some
                (Ast.E_binop
                   ( Ast.Lt,
                     Ast.E_attr (None, "w", Loc.dummy),
                     Ast.E_lit (Ast.L_int c, Loc.dummy),
                     Loc.dummy )))
            (int_bound 4) );
      ])

(* (edge name, dir, from type, to type) choices per current type *)
let moves = function
  | "A" ->
      [ ("eaa", Ast.Out, "A"); ("eaa", Ast.In, "A"); ("eab", Ast.Out, "B");
        ("eba", Ast.In, "B") ]
  | "B" -> [ ("eab", Ast.In, "A"); ("eba", Ast.Out, "A") ]
  | _ -> assert false

let gen_path =
  let open QCheck.Gen in
  let* start = oneofl [ "A"; "B" ] in
  let* len = int_range 1 3 in
  let* head_cond = gen_cond in
  let* head_label =
    frequency
      [ (3, return None); (1, return (Some (Ast.Set_label "L0")));
        (1, return (Some (Ast.Each_label "L0"))) ]
  in
  let head =
    { Ast.v_kind = Ast.V_named start; v_label = head_label; v_cond = head_cond;
      v_loc = Loc.dummy }
  in
  let rec go cur i acc labels =
    if i > len then return (List.rev acc)
    else
      let* ename, dir, next = oneofl (moves cur) in
      let* econd = gen_edge_cond in
      let estep = { Ast.e_kind = Ast.E_named ename; e_dir = dir; e_label = None;
                    e_cond = econd; e_loc = Loc.dummy } in
      (* Maybe reference an earlier label of the right type instead. *)
      let usable = List.filter (fun (_, t) -> t = next) labels in
      let* use_ref =
        if usable = [] then return None
        else frequency [ (2, return None); (1, map Option.some (oneofl usable)) ]
      in
      match use_ref with
      | Some (lname, _) ->
          let v = { Ast.v_kind = Ast.V_named lname; v_label = None;
                    v_cond = None; v_loc = Loc.dummy } in
          go next (i + 1) (Ast.Seg_step (estep, v) :: acc) labels
      | None ->
          let* cond = gen_cond in
          let* label =
            frequency
              [ (4, return None);
                (1, return (Some (Ast.Set_label (Printf.sprintf "L%d" i))));
                (1, return (Some (Ast.Each_label (Printf.sprintf "L%d" i)))) ]
          in
          let labels =
            match label with
            | Some l -> (Ast.label_name l, next) :: labels
            | None -> labels
          in
          let v = { Ast.v_kind = Ast.V_named next; v_label = label;
                    v_cond = cond; v_loc = Loc.dummy } in
          go next (i + 1) (Ast.Seg_step (estep, v) :: acc) labels
  in
  let labels =
    match head_label with Some l -> [ (Ast.label_name l, start) ] | None -> []
  in
  let* segments = go start 1 [] labels in
  return { Ast.head; segments }

let gen_scenario =
  let open QCheck.Gen in
  let vattrs = list_size (int_range 1 5) (int_bound 9) in
  let edges na nb =
    if na = 0 || nb = 0 then return []
    else
      list_size (int_range 0 10) (pair (int_bound (na - 1)) (int_bound (nb - 1)))
  in
  let* xa = vattrs in
  let* xb = vattrs in
  let na = List.length xa and nb = List.length xb in
  let* e_aa = edges na na in
  let* e_ab = edges na nb in
  let* e_ba = edges nb na in
  let* path = gen_path in
  return { xa; xb; e_aa; e_ab; e_ba; path }

let print_scenario s =
  Format.asprintf "A.x=[%s] B.x=[%s] eaa=%d eab=%d eba=%d path: %a"
    (String.concat ";" (List.map string_of_int s.xa))
    (String.concat ";" (List.map string_of_int s.xb))
    (List.length s.e_aa) (List.length s.e_ab) (List.length s.e_ba)
    Graql_lang.Pretty.path s.path

(* ------------------------------------------------------------------ *)
(* The comparison                                                      *)

let engine_tuples db ~auto_reverse path =
  let res =
    Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Path_exec.Keep_all ~auto_reverse (Ast.M_path path)
  in
  match res.Path_exec.comps with
  | [ c ] ->
      let order =
        List.sort
          (fun a b ->
            compare c.Path_exec.slots.(a).Path_exec.s_step
              c.Path_exec.slots.(b).Path_exec.s_step)
          (List.init (Array.length c.Path_exec.slots) Fun.id)
      in
      let vcols =
        List.filter (fun i -> c.Path_exec.slots.(i).Path_exec.s_kind = `V) order
      in
      List.sort compare
        (Array.to_list
           (Array.map
              (fun row -> List.map (fun i -> row.(i)) vcols)
              c.Path_exec.rows))
  | _ -> failwith "expected one component"

let reference_tuples db path =
  List.sort compare
    (List.map Array.to_list
       (Reference_exec.run_path ~db ~params:(fun _ -> None) path).tuples)

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"path executor = brute-force oracle" ~count:150
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s ->
      let db = build_db s in
      let expected = reference_tuples db s.path in
      engine_tuples db ~auto_reverse:false s.path = expected
      && engine_tuples db ~auto_reverse:true s.path = expected)

(* Variant steps too: replace every named step by [ ] (dropping conditions
   and labels) — both executors must still agree. *)
let strip_to_variant (p : Ast.path) =
  let v (x : Ast.vstep) =
    { x with Ast.v_kind = Ast.V_any; v_cond = None; v_label = None }
  in
  let e (x : Ast.estep) = { x with Ast.e_kind = Ast.E_any; e_cond = None } in
  {
    Ast.head = v p.Ast.head;
    segments =
      List.map
        (function
          | Ast.Seg_step (es, vs) -> Ast.Seg_step (e es, v vs)
          | seg -> seg)
        p.Ast.segments;
  }

let prop_variant_matches_reference =
  QCheck.Test.make ~name:"variant-step executor = oracle" ~count:75
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s ->
      let db = build_db s in
      let path = strip_to_variant s.path in
      engine_tuples db ~auto_reverse:false path = reference_tuples db path)

(* ------------------------------------------------------------------ *)
(* Regex segments vs an independent reachability oracle                 *)

(* Single-type scenarios: vertices 0..n-1 of type A, eaa edges. The
   oracle computes reachability with plain BFS over an adjacency list —
   no shared code with the engine's memoized round-based closure. *)

type rx_scenario = {
  rx_n : int;
  rx_edges : (int * int) list;
  rx_op : Ast.rx_op;
  rx_start : int;
}

let print_rx s =
  Format.asprintf "n=%d edges=[%s] start=%d op=%s" s.rx_n
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) s.rx_edges))
    s.rx_start
    (match s.rx_op with
    | Ast.Rx_star -> "*"
    | Ast.Rx_plus -> "+"
    | Ast.Rx_count k -> Printf.sprintf "{%d}" k)

let gen_rx_scenario =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let* edges =
    list_size (int_range 0 12) (pair (int_bound (n - 1)) (int_bound (n - 1)))
  in
  let* op =
    oneof
      [
        return Ast.Rx_star;
        return Ast.Rx_plus;
        map (fun k -> Ast.Rx_count k) (int_bound 4);
      ]
  in
  let* start = int_bound (n - 1) in
  return { rx_n = n; rx_edges = edges; rx_op = op; rx_start = start }

let rx_db s =
  build_db
    {
      xa = List.init s.rx_n (fun i -> i);
      xb = [ 0 ];
      e_aa = s.rx_edges;
      e_ab = [];
      e_ba = [];
      path = { Ast.head = { Ast.v_kind = Ast.V_any; v_label = None;
                            v_cond = None; v_loc = Loc.dummy };
               segments = [] };
    }

(* Oracle: BFS over adjacency; returns the sorted endpoint set. *)
let rx_oracle s =
  let adj = Array.make s.rx_n [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) s.rx_edges;
  match s.rx_op with
  | Ast.Rx_count k ->
      (* exactly k hops, with per-level dedup *)
      let level = ref [ s.rx_start ] in
      for _ = 1 to k do
        level :=
          List.sort_uniq compare
            (List.concat_map (fun v -> adj.(v)) !level)
      done;
      List.sort_uniq compare !level
  | Ast.Rx_star | Ast.Rx_plus ->
      let visited = Array.make s.rx_n false in
      let rec bfs frontier =
        match frontier with
        | [] -> ()
        | v :: rest ->
            let fresh =
              List.filter
                (fun w ->
                  if visited.(w) then false
                  else begin
                    visited.(w) <- true;
                    true
                  end)
                adj.(v)
            in
            bfs (rest @ fresh)
      in
      if s.rx_op = Ast.Rx_star then visited.(s.rx_start) <- true;
      bfs [ s.rx_start ];
      (* '+' includes the start only if it is reachable in >= 1 hop, which
         the BFS from its successors decides; the seeding above covers '*'. *)
      List.filter (fun v -> visited.(v)) (List.init s.rx_n Fun.id)

let rx_engine db s =
  let path =
    {
      Ast.head =
        {
          Ast.v_kind = Ast.V_named "A";
          v_label = None;
          v_cond =
            Some
              (Ast.E_binop
                 ( Ast.Eq,
                   Ast.E_attr (None, "x", Loc.dummy),
                   Ast.E_lit (Ast.L_int s.rx_start, Loc.dummy),
                   Loc.dummy ));
          v_loc = Loc.dummy;
        };
      segments =
        [
          Ast.Seg_regex
            ( [
                ( { Ast.e_kind = Ast.E_named "eaa"; e_dir = Ast.Out;
                    e_label = None; e_cond = None; e_loc = Loc.dummy },
                  { Ast.v_kind = Ast.V_named "A"; v_label = None;
                    v_cond = None; v_loc = Loc.dummy } );
              ],
              s.rx_op,
              Loc.dummy );
        ];
    }
  in
  let res =
    Path_exec.run_multipath ~db
      ~params:(fun _ -> None)
      ~mode:Path_exec.Keep_all (Ast.M_path path)
  in
  match res.Path_exec.comps with
  | [ c ] ->
      (* Vertex x attribute = its index, so recover indices via x. *)
      let endpoint_col = Array.length c.Path_exec.slots - 1 in
      List.sort_uniq compare
        (Array.to_list
           (Array.map
              (fun row ->
                let cell = row.(endpoint_col) in
                match
                  Graql_graph.Vset.attr_by_name
                    (Graql_engine.Pack.vset_of res.Path_exec.universe cell)
                    ~vertex:(Graql_engine.Pack.id cell) "x"
                with
                | Graql_storage.Value.Int x -> x
                | _ -> -1)
              c.Path_exec.rows))
  | _ -> failwith "one component expected"

let prop_regex_matches_bfs =
  QCheck.Test.make ~name:"regex closure = BFS oracle" ~count:200
    (QCheck.make ~print:print_rx gen_rx_scenario)
    (fun s ->
      let db = rx_db s in
      rx_engine db s = rx_oracle s)

let () =
  Alcotest.run "property"
    [
      ( "path-executor",
        [
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
          QCheck_alcotest.to_alcotest prop_variant_matches_reference;
          QCheck_alcotest.to_alcotest prop_regex_matches_bfs;
        ] );
    ]
