module Table = Graql_storage.Table
module Value = Graql_storage.Value

type t = {
  name : string;
  src_type : string;
  dst_type : string;
  src : int array;
  dst : int array;
  forward : Csr.t;
  reverse : Csr.t;
  attr_table : Table.t option;
  attr_rows : int array;
  driving : Table.t;
  rows_seen : int; (* driving rows turned into edges so far *)
  dropped : int; (* of those, rows whose endpoint key found no vertex *)
  pairs : int Key_index.t option; (* (src, dst) -> edge id, deduped views *)
}

let empty ~name ~src_type ~dst_type ~driving ~keep_attrs ~dedupe =
  let no_edges = Csr.build ~nvertices:0 ~src:[||] ~dst:[||] () in
  {
    name;
    src_type;
    dst_type;
    src = [||];
    dst = [||];
    forward = no_edges;
    reverse = no_edges;
    attr_table = (if keep_attrs then Some driving else None);
    attr_rows = [||];
    driving;
    rows_seen = 0;
    dropped = 0;
    pairs = (if dedupe then Some Key_index.empty else None);
  }

(* [b] is fresh and handed over, so a view over no rows takes it as is. *)
let append a b = if Array.length a = 0 then b else Array.append a b

let extend ?pool t ~n_src_vertices ~n_dst_vertices ~src ~dst ~attr_rows
    ~pair_level ~rows_seen ~dropped =
  let src = append t.src src and dst = append t.dst dst in
  {
    t with
    src;
    dst;
    forward = Csr.build ?pool ~nvertices:n_src_vertices ~src ~dst ();
    reverse = Csr.build ?pool ~nvertices:n_dst_vertices ~src:dst ~dst:src ();
    attr_rows = append t.attr_rows attr_rows;
    rows_seen;
    dropped;
    pairs = Option.map (fun p -> Key_index.push p pair_level) t.pairs;
  }

let name t = t.name
let src_type t = t.src_type
let dst_type t = t.dst_type
let size t = Array.length t.src
let src t e = t.src.(e)
let dst t e = t.dst.(e)
let forward t = t.forward
let reverse t = t.reverse
let attr_table t = t.attr_table
let attr_row t e = t.attr_rows.(e)
let driving t = t.driving
let rows_seen t = t.rows_seen
let dropped t = t.dropped

let pair_key ~src ~dst = (src lsl 31) lor dst

let has_pair t pair =
  match t.pairs with
  | Some p -> Key_index.find p pair <> None
  | None -> invalid_arg "Eset.has_pair: edge type is not deduplicated"

let dedupe t = t.pairs <> None

let attr t ~edge ~col =
  match t.attr_table with
  | Some table -> Table.get table ~row:t.attr_rows.(edge) ~col
  | None -> invalid_arg (Printf.sprintf "edge type %s has no attributes" t.name)

let attr_by_name t ~edge name =
  match t.attr_table with
  | Some table -> Table.get_by_name table ~row:t.attr_rows.(edge) name
  | None -> invalid_arg (Printf.sprintf "edge type %s has no attributes" t.name)
