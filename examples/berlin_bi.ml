(* The full Berlin business-intelligence session from the paper: load the
   schema and a generated dataset, then run every query the figures show,
   with the wall time of each query and the IR bytes the GEMS session
   shipped from front end to backend.

   Run with: dune exec examples/berlin_bi.exe -- [scale] *)

let () =
  let scale =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2
  in
  let pool = Graql.Domain_pool.create () in
  let session = Graql.create_session ~pool () in
  Printf.printf "loading Berlin at scale %d (~%d products)...\n%!" scale
    (100 * scale);
  Graql.Berlin.Gen.ingest_all ~scale session;

  print_endline "\n=== server catalog ===";
  print_endline
    (Graql_util.Text_table.render ~header:[ "kind"; "name"; "size" ]
       (Graql.Session.catalog_rows session));

  let db = Graql.Session.db session in
  let product = Graql.Berlin.Reference.most_offered_product ~scale () in
  Graql.Db.set_param db "Product1" (Graql.Value.Str product);
  Graql.Db.set_param db "Country1" (Graql.Value.Str "US");
  Graql.Db.set_param db "Country2" (Graql.Value.Str "DE");
  Printf.printf "\n%%Product1%% = %s, %%Country1%% = US, %%Country2%% = DE\n"
    product;

  List.iter
    (fun (name, q) ->
      Printf.printf "\n=== %s ===\n" name;
      let t0 = Unix.gettimeofday () in
      let results = Graql.run session q in
      let dt = Unix.gettimeofday () -. t0 in
      List.iter
        (fun (_, outcome) ->
          match outcome with
          | Graql.O_table t ->
              print_endline (Graql.Table.to_display_string ~max_rows:10 t)
          | Graql.O_subgraph sg -> print_endline (Graql.Subgraph.summary sg)
          | Graql.O_message m -> print_endline m
          | Graql.O_failed e -> print_endline ("error: " ^ Graql.Error.to_string e))
        results;
      Printf.printf "(%.1f ms)\n" (dt *. 1000.0))
    Graql.Berlin.Queries.all;

  Printf.printf "\nIR shipped: %d bytes\n"
    (Graql.Session.ir_bytes_shipped session)
