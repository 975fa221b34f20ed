module Table = Graql_storage.Table
module Column = Graql_storage.Column
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema
module Pool = Graql_parallel.Domain_pool
module Int_vec = Graql_util.Int_vec

(* Master switch for the batch kernels (selection-vector scans and
   columnar gather materialization). Row-at-a-time execution remains the
   reference implementation; tests and benchmarks flip this to compare
   the two paths byte for byte. *)
let vectorized = ref true

let select_indices ?pool ?(lo = 0) table pred =
  let n = Table.nrows table in
  let first = lo in
  (* Batch path: chunked tri-mask evaluation over raw payloads. Falls
     back to the compiled per-row closure, then to the generic
     evaluator (all three are property-tested equivalent). *)
  let batch =
    if !vectorized then Fast_pred.compile_batch table pred else None
  in
  match batch with
  | Some mk -> (
      match pool with
      | Some pool when n - first >= 4096 ->
          let ranges =
            Array.of_list (Pool.chunk_ranges pool ~lo:first ~hi:n ())
          in
          let outs = Array.map (fun _ -> Int_vec.create ()) ranges in
          Pool.run_tasks pool
            (Array.to_list
               (Array.mapi
                  (fun i (lo, hi) () ->
                    (* Instantiate per task: each runner owns private
                       mask buffers. *)
                    let run = mk () in
                    run ~lo ~hi outs.(i))
                  ranges));
          let acc = Int_vec.create () in
          Array.iter (fun o -> Int_vec.append acc o) outs;
          Int_vec.to_array acc
      | _ ->
          let out = Int_vec.create () in
          (mk ()) ~lo:first ~hi:n out;
          Int_vec.to_array out)
  | None -> (
      let row_test =
        match Fast_pred.compile table pred with
        | Some fast -> fast
        | None ->
            fun i ->
              let get c = Table.get table ~row:i ~col:c in
              Row_expr.eval_bool get pred
      in
      let eval_range lo hi out =
        for i = lo to hi - 1 do
          if row_test i then Int_vec.push out i
        done
      in
      match pool with
      | Some pool when n - first >= 4096 ->
          let acc =
            Pool.parallel_reduce pool
              ~init:(fun () -> Int_vec.create ())
              ~body:(fun out i -> if row_test i then Int_vec.push out i)
              ~merge:(fun a b ->
                Int_vec.append a b;
                a)
              ~lo:first ~hi:n
          in
          Int_vec.to_array acc
      | Some _ | None ->
          let out = Int_vec.create () in
          eval_range first n out;
          Int_vec.to_array out)

(* Columnar materialization: gather each output column from the source
   payload at the selected rows (dictionaries shared), instead of boxing
   every cell through a Value round-trip. *)
let gather_rows ?name table rows =
  let name = match name with Some n -> n | None -> Table.name table in
  let schema = Table.schema table in
  let n = Array.length rows in
  if Table.arity table = 0 then Table.create ~name schema
  else
    let cols =
      Array.init (Table.arity table) (fun i ->
          let src = Table.column table i in
          let dst = Column.create_sized ~share_dict_of:src (Column.dtype src) n in
          Column.gather_into ~src ~rows ~dst ~lo:0 ~hi:n;
          dst)
    in
    Table.of_columns ~name schema cols

let materialize ?name table rows =
  if !vectorized then gather_rows ?name table rows
  else begin
    let name = match name with Some n -> n | None -> Table.name table in
    let out = Table.create ~name (Table.schema table) in
    Array.iter (fun r -> Table.append_row_array out (Table.row table r)) rows;
    out
  end

let select ?pool ?name table pred =
  materialize ?name table (select_indices ?pool table pred)

let project ?name table cols =
  let schema = Table.schema table in
  let out_schema =
    Schema.make
      (List.map
         (fun c ->
           { Schema.name = Schema.col_name schema c; dtype = Schema.col_dtype schema c })
         cols)
  in
  let name = match name with Some n -> n | None -> Table.name table in
  if !vectorized then begin
    let n = Table.nrows table in
    let rows = Array.init n Fun.id in
    let out_cols =
      Array.of_list
        (List.map
           (fun c ->
             let src = Table.column table c in
             let dst =
               Column.create_sized ~share_dict_of:src (Column.dtype src) n
             in
             Column.gather_into ~src ~rows ~dst ~lo:0 ~hi:n;
             dst)
           cols)
    in
    Table.of_columns ~name out_schema out_cols
  end
  else begin
    let out = Table.create ~name out_schema in
    let cols = Array.of_list cols in
    Table.iter_rows
      (fun r ->
        Table.append_row_array out
          (Array.map (fun c -> Table.get table ~row:r ~col:c) cols))
      table;
    out
  end

let project_named ?name table specs =
  let out_schema =
    Schema.make
      (List.map (fun (n, dt, _) -> { Schema.name = n; dtype = dt }) specs)
  in
  let name = match name with Some n -> n | None -> Table.name table in
  if !vectorized then begin
    (* Column-at-a-time: plain column references gather unboxed (sharing
       dictionaries); computed expressions evaluate row-wise into their
       own column. Identical values, no whole-row boxing for the common
       reorder/rename projections. *)
    let n = Table.nrows table in
    let schema = Table.schema table in
    let identity = lazy (Array.init n Fun.id) in
    let cols =
      List.map
        (fun (cname, dt, e) ->
          match e with
          | Row_expr.Col i
            when i >= 0 && i < Table.arity table
                 && Schema.col_dtype schema i = dt ->
              let src = Table.column table i in
              let dst = Column.create_sized ~share_dict_of:src dt n in
              Column.gather_into ~src ~rows:(Lazy.force identity) ~dst ~lo:0
                ~hi:n;
              dst
          | _ ->
              let c = Column.create ~expected:(max 16 n) dt in
              for r = 0 to n - 1 do
                let get cc = Table.get table ~row:r ~col:cc in
                try Column.append c (Row_expr.eval get e)
                with Failure msg ->
                  failwith
                    (Printf.sprintf "table %s, column %s: %s" name cname msg)
              done;
              c)
        specs
    in
    Table.of_columns ~name out_schema (Array.of_list cols)
  end
  else begin
    let out = Table.create ~name out_schema in
    let exprs = Array.of_list (List.map (fun (_, _, e) -> e) specs) in
    Table.iter_rows
      (fun r ->
        let get c = Table.get table ~row:r ~col:c in
        Table.append_row_array out (Array.map (Row_expr.eval get) exprs))
      table;
    out
  end

(* Row-equality hashing for distinct / group by: hash the value tuple. *)
let row_key table r =
  Array.map Value.to_string (Table.row table r) |> Array.to_list

let distinct ?name table =
  let seen = Hashtbl.create 256 in
  let keep = Int_vec.create () in
  Table.iter_rows
    (fun r ->
      let key = row_key table r in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Int_vec.push keep r
      end)
    table;
  materialize ?name table (Int_vec.to_array keep)

type dir = Asc | Desc

let compare_rows table keys a b =
  let rec go = function
    | [] -> compare a b (* stability by row id *)
    | (col, dir) :: rest ->
        let va = Table.get table ~row:a ~col
        and vb = Table.get table ~row:b ~col in
        let c = Value.compare va vb in
        let c = match dir with Asc -> c | Desc -> -c in
        if c <> 0 then c else go rest
  in
  go keys

let order_by ?name table keys =
  let n = Table.nrows table in
  let idx = Array.init n (fun i -> i) in
  Array.sort (compare_rows table keys) idx;
  materialize ?name table idx

let top_n ?name table ~n ~keys =
  (* Keep the n smallest under the requested ordering: invert the
     comparison for the max-keeping heap. *)
  let cmp a b = compare_rows table keys b a in
  let heap = Graql_util.Topk.create ~k:n ~cmp in
  Table.iter_rows (fun r -> Graql_util.Topk.add heap r) table;
  materialize ?name table (Array.of_list (Graql_util.Topk.to_sorted_list heap))

let limit ?name table n =
  let n = min n (Table.nrows table) in
  materialize ?name table (Array.init n (fun i -> i))

let union_all ?name a b =
  let sa = Table.schema a and sb = Table.schema b in
  if Schema.arity sa <> Schema.arity sb then
    failwith "union: arity mismatch";
  Array.iteri
    (fun i ca ->
      let cb = (Schema.cols sb).(i) in
      if not (Graql_storage.Dtype.compatible ca.Schema.dtype cb.Schema.dtype) then
        failwith
          (Printf.sprintf "union: column %d type mismatch (%s vs %s)" i
             (Graql_storage.Dtype.to_string ca.Schema.dtype)
             (Graql_storage.Dtype.to_string cb.Schema.dtype)))
    (Schema.cols sa);
  let name = match name with Some n -> n | None -> Table.name a in
  let out = Table.create ~name sa in
  Table.iter_rows (fun r -> Table.append_row_array out (Table.row a r)) a;
  Table.iter_rows (fun r -> Table.append_row_array out (Table.row b r)) b;
  out
