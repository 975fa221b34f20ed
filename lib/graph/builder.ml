module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema
module Row_expr = Graql_relational.Row_expr
module Relop = Graql_relational.Relop
module Int_vec = Graql_util.Int_vec

(* Rows [lo, nrows) of [table] that pass [cond], ascending. *)
let new_rows ?pool table ~lo ?cond () =
  match cond with
  | None -> Array.init (Table.nrows table - lo) (fun i -> lo + i)
  | Some cond -> Relop.select_indices ?pool ~lo table cond

(* Eq. 1 over the rows [base] has not keyed yet. A key tuple already in
   [base] or earlier in the new rows makes the type many-to-one; if [base]
   is one-to-one and already has vertices, its attribute visibility would
   change, so the view is not extended (None) and must be built again
   from row 0. *)
let extend_vertices ?pool base ~key_cols ?cond () =
  let source = Vset.source_table base in
  let rows = new_rows ?pool source ~lo:(Vset.rows_seen base) ?cond () in
  let key_cols_arr = Array.of_list key_cols in
  let base_n = Vset.size base in
  let key_level = Hashtbl.create (max 16 (Array.length rows)) in
  let keys = ref [] in
  let nkeys = ref 0 in
  let first_row = Int_vec.create () in
  let duplicated = ref false in
  Array.iter
    (fun r ->
      let kvals =
        Array.map (fun c -> Table.get source ~row:r ~col:c) key_cols_arr
      in
      if not (Array.exists (fun v -> v = Value.Null) kvals) then begin
        let key = Vset.key_of_values kvals in
        if Hashtbl.mem key_level key || Vset.find_by_key_string base key <> None
        then duplicated := true
        else begin
          Hashtbl.add key_level key (base_n + !nkeys);
          keys := kvals :: !keys;
          Int_vec.push first_row r;
          incr nkeys
        end
      end)
    rows;
  let keys = Array.of_list (List.rev !keys) in
  let extend ~attr_table ~attr_rows ~one_to_one =
    Some
      (Vset.extend base ~keys ~key_level ~attr_table ~attr_rows ~one_to_one
         ~rows_seen:(Table.nrows source))
  in
  (* Many-to-one: only the key columns are well-defined per instance, so
     the attribute table holds the key tuples. It is written afresh, not
     appended to, since the old view may still be read. *)
  let key_table () =
    let table = Table.create ~name:(Vset.name base) (Vset.key_schema base) in
    Table.reserve table (base_n + Array.length keys);
    for v = 0 to base_n - 1 do
      Table.append_row_array table (Vset.key_values base v)
    done;
    Array.iter (Table.append_row_array table) keys;
    table
  in
  if Vset.one_to_one base && not !duplicated then
    (* One-to-one mapping: every instance is one source row, so the whole
       source row is attribute-visible. *)
    extend ~attr_table:source ~attr_rows:(Int_vec.to_array first_row)
      ~one_to_one:true
  else if Vset.one_to_one base && base_n > 0 then None
  else if Array.length keys = 0 then
    extend ~attr_table:(Vset.attr_table base) ~attr_rows:[||] ~one_to_one:false
  else
    extend ~attr_table:(key_table ())
      ~attr_rows:(Array.init (Array.length keys) (fun i -> base_n + i))
      ~one_to_one:false

let empty_vertices ~name ~source ~key_cols =
  let schema = Table.schema source in
  let key_schema =
    Schema.make
      (List.map
         (fun c ->
           { Schema.name = Schema.col_name schema c; dtype = Schema.col_dtype schema c })
         key_cols)
  in
  Vset.empty ~name ~key_schema ~source_table:source

let build_vertices ?pool ~name ~source ~key_cols ?cond () =
  match
    extend_vertices ?pool (empty_vertices ~name ~source ~key_cols) ~key_cols
      ?cond ()
  with
  | Some v -> v
  | None -> assert false (* a base without vertices always extends *)

let extend_edges ?pool base ~src ~dst ~src_key ~dst_key ?cond () =
  let driving = Eset.driving base in
  let rows = new_rows ?pool driving ~lo:(Eset.rows_seen base) ?cond () in
  let key_of cols =
    match cols with
    | [ c ] -> (
        fun r ->
          match Table.get driving ~row:r ~col:c with
          | Value.Null -> None
          | v -> Some (Vset.key_of_values [| v |]))
    | _ ->
        let cols = Array.of_list cols in
        fun r ->
          let kvals = Array.map (fun c -> Table.get driving ~row:r ~col:c) cols in
          if Array.exists (fun v -> v = Value.Null) kvals then None
          else Some (Vset.key_of_values kvals)
  in
  let src_key = key_of src_key and dst_key = key_of dst_key in
  let base_m = Eset.size base in
  let dedupe = Eset.dedupe base in
  let srcs = Int_vec.create () and dsts = Int_vec.create () in
  let attr_rows = Int_vec.create () in
  let pair_level = Hashtbl.create (if dedupe then 256 else 1) in
  let dropped_src = ref (Eset.dropped_src base)
  and dropped_dst = ref (Eset.dropped_dst base) in
  Array.iter
    (fun r ->
      match (src_key r, dst_key r) with
      | Some sk, Some dk -> (
          match (Vset.find_by_key_string src sk, Vset.find_by_key_string dst dk) with
          | Some s, Some d ->
              let pair = Eset.pair_key ~src:s ~dst:d in
              let fresh =
                (not dedupe)
                || not (Hashtbl.mem pair_level pair || Eset.has_pair base pair)
              in
              if fresh then begin
                if dedupe then
                  Hashtbl.add pair_level pair (base_m + Int_vec.length srcs);
                Int_vec.push srcs s;
                Int_vec.push dsts d;
                Int_vec.push attr_rows r
              end
          | s, d ->
              (* Endpoint filtered out of (or not yet in) the vertex view:
                 no edge. *)
              if s = None then incr dropped_src;
              if d = None then incr dropped_dst)
      | _ -> () (* Null key: no edge *))
    rows;
  let attr_rows = Int_vec.to_array attr_rows in
  let attr_rows =
    if Eset.attr_table base = None then Array.map (fun _ -> 0) attr_rows
    else attr_rows
  in
  Eset.extend ?pool base ~n_src_vertices:(Vset.size src)
    ~n_dst_vertices:(Vset.size dst) ~src:(Int_vec.to_array srcs)
    ~dst:(Int_vec.to_array dsts) ~attr_rows ~pair_level
    ~rows_seen:(Table.nrows driving) ~dropped_src:!dropped_src
    ~dropped_dst:!dropped_dst

let build_edges ?pool ~name ~src ~dst ~driving ~src_key ~dst_key ?cond
    ?(dedupe = false) ?(keep_attrs = true) () =
  let base =
    Eset.empty ~name ~src_type:(Vset.name src) ~dst_type:(Vset.name dst)
      ~driving ~keep_attrs:(keep_attrs && Table.arity driving > 0) ~dedupe
  in
  extend_edges ?pool base ~src ~dst ~src_key ~dst_key ?cond ()
