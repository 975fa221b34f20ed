module Table = Graql_storage.Table
module Value = Graql_storage.Value

type t = {
  name : string;
  src_type : string;
  dst_type : string;
  size : int;
  (* Edges [0, size) of arrays shared with the view's other versions
     (Backing). *)
  src : int array;
  dst : int array;
  attr_rows : int array;
  owner : Backing.owner;
  forward : Csr.t;
  reverse : Csr.t;
  attr_table : Table.t option;
  driving : Table.t;
  rows_seen : int; (* driving rows turned into edges so far *)
  (* Of those, rows whose src (dst) key was not Null but named no vertex. *)
  dropped_src : int;
  dropped_dst : int;
  pairs : int Key_index.t option; (* (src, dst) -> edge id, deduped views *)
}

let empty ~name ~src_type ~dst_type ~driving ~keep_attrs ~dedupe =
  let no_edges = Csr.build ~nvertices:0 ~src:[||] ~dst:[||] () in
  {
    name;
    src_type;
    dst_type;
    size = 0;
    src = [||];
    dst = [||];
    attr_rows = [||];
    owner = Backing.owner 0;
    forward = no_edges;
    reverse = no_edges;
    attr_table = (if keep_attrs then Some driving else None);
    driving;
    rows_seen = 0;
    dropped_src = 0;
    dropped_dst = 0;
    pairs = (if dedupe then Some Key_index.empty else None);
  }

let extend ?pool t ~n_src_vertices ~n_dst_vertices ~src ~dst ~attr_rows
    ~pair_level ~rows_seen ~dropped_src ~dropped_dst =
  let added = Array.length src in
  if Array.length dst <> added || Array.length attr_rows <> added then
    invalid_arg "Eset.extend: length mismatch";
  let g =
    Backing.plan t.owner ~size:t.size ~cap:(Array.length t.src) ~added
  in
  let src = Backing.put g t.src ~fill:0 src
  and dst = Backing.put g t.dst ~fill:0 dst
  and attr_rows = Backing.put g t.attr_rows ~fill:0 attr_rows in
  let size = t.size + added in
  let forward =
    Csr.append ?pool t.forward ~nvertices:n_src_vertices ~src ~dst ~nedges:size
  and reverse =
    Csr.append ?pool t.reverse ~nvertices:n_dst_vertices ~src:dst ~dst:src
      ~nedges:size
  in
  {
    t with
    size;
    src;
    dst;
    attr_rows;
    owner = Backing.commit g;
    forward;
    reverse;
    rows_seen;
    dropped_src;
    dropped_dst;
    pairs = Option.map (fun p -> Key_index.push p pair_level) t.pairs;
  }

let name t = t.name
let src_type t = t.src_type
let dst_type t = t.dst_type
let size t = t.size

(* The arrays may be longer than this version. *)
let check t e = if e >= t.size then invalid_arg "index out of bounds"

let src t e =
  check t e;
  t.src.(e)

let dst t e =
  check t e;
  t.dst.(e)

let forward t = t.forward
let reverse t = t.reverse
let attr_table t = t.attr_table
let attr_row t e =
  check t e;
  t.attr_rows.(e)

let driving t = t.driving
let rows_seen t = t.rows_seen
let dropped_src t = t.dropped_src
let dropped_dst t = t.dropped_dst

let pair_key ~src ~dst = (src lsl 31) lor dst

let has_pair t pair =
  match t.pairs with
  | Some p -> Key_index.find p pair <> None
  | None -> invalid_arg "Eset.has_pair: edge type is not deduplicated"

let dedupe t = t.pairs <> None

let attr t ~edge ~col =
  match t.attr_table with
  | Some table -> Table.get table ~row:(attr_row t edge) ~col
  | None -> invalid_arg (Printf.sprintf "edge type %s has no attributes" t.name)

let attr_by_name t ~edge name =
  match t.attr_table with
  | Some table -> Table.get_by_name table ~row:(attr_row t edge) name
  | None -> invalid_arg (Printf.sprintf "edge type %s has no attributes" t.name)
