module Table = Graql_storage.Table
module Value = Graql_storage.Value
module Schema = Graql_storage.Schema

type t = {
  name : string;
  key_schema : Schema.t;
  size : int;
  (* Vertices [0, size) of arrays shared with the view's other versions
     (Backing). *)
  keys : Value.t array array; (* vertex id -> key tuple *)
  attr_rows : int array; (* vertex id -> row in attr_table *)
  owner : Backing.owner;
  key_index : string Key_index.t;
  attr_table : Table.t;
  one_to_one : bool;
  source_table : Table.t;
  rows_seen : int; (* source rows keyed so far *)
}

let empty ~name ~key_schema ~source_table =
  {
    name;
    key_schema;
    size = 0;
    keys = [||];
    attr_rows = [||];
    owner = Backing.owner 0;
    key_index = Key_index.empty;
    attr_table = source_table;
    one_to_one = true;
    source_table;
    rows_seen = 0;
  }

let extend t ~keys ~key_level ~attr_table ~attr_rows ~one_to_one ~rows_seen =
  let added = Array.length keys in
  if Array.length attr_rows <> added then invalid_arg "Vset.extend: length mismatch";
  let g = Backing.plan t.owner ~size:t.size ~cap:(Array.length t.keys) ~added in
  let keys = Backing.put g t.keys ~fill:[||] keys
  and attr_rows = Backing.put g t.attr_rows ~fill:0 attr_rows in
  {
    t with
    size = t.size + added;
    keys;
    attr_rows;
    owner = Backing.commit g;
    key_index = Key_index.push t.key_index key_level;
    attr_table;
    one_to_one;
    rows_seen;
  }

let name t = t.name
let size t = t.size
let key_schema t = t.key_schema
let one_to_one t = t.one_to_one
let source_table t = t.source_table
let rows_seen t = t.rows_seen
let attr_table t = t.attr_table
let attr_schema t = Table.schema t.attr_table

(* The arrays may be longer than this version. *)
let check t v = if v >= t.size then invalid_arg "index out of bounds"

let attr_row t v =
  check t v;
  t.attr_rows.(v)

let attr t ~vertex ~col = Table.get t.attr_table ~row:(attr_row t vertex) ~col

let attr_by_name t ~vertex name =
  Table.get_by_name t.attr_table ~row:(attr_row t vertex) name

let key_values t v =
  check t v;
  t.keys.(v)

let key_of_values kvals =
  if Array.length kvals = 1 then Value.to_string kvals.(0)
  else String.concat "\x00" (Array.to_list (Array.map Value.to_string kvals))

let key_string t v =
  let kvals = key_values t v in
  if Array.length kvals = 1 then Value.to_string kvals.(0)
  else "(" ^ String.concat ", " (Array.to_list (Array.map Value.to_string kvals)) ^ ")"

let find_by_key_string t key = Key_index.find t.key_index key

let find_by_key t values =
  find_by_key_string t (key_of_values (Array.of_list values))
