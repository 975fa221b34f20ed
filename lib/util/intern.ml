type t = {
  mutable table : (string, int) Hashtbl.t;
  mutable rev : string array;
  mutable len : int;
}

let create ?(expected = 16) () =
  let expected = max 16 expected in
  { table = Hashtbl.create expected; rev = Array.make expected ""; len = 0 }

(* Grow both directions of the mapping to hold [n] strings without
   incremental rehash-and-double churn. The reverse array grows by
   blitting; the hash table is rebuilt once at the new capacity (OCaml's
   Hashtbl cannot be resized in place). The capacity at least doubles, so
   a run of small reserves (one per ingest) rebuilds O(log n) times, not
   on every call. *)
let reserve t n =
  if n > Array.length t.rev then begin
    let cap = max n (2 * Array.length t.rev) in
    let rev = Array.make cap "" in
    Array.blit t.rev 0 rev 0 t.len;
    t.rev <- rev;
    let table = Hashtbl.create cap in
    for id = 0 to t.len - 1 do
      Hashtbl.add table t.rev.(id) id
    done;
    t.table <- table
  end

let intern t s =
  match Hashtbl.find_opt t.table s with
  | Some id -> id
  | None ->
      let id = t.len in
      if id >= Array.length t.rev then begin
        let rev = Array.make (2 * Array.length t.rev) "" in
        Array.blit t.rev 0 rev 0 t.len;
        t.rev <- rev
      end;
      t.rev.(id) <- s;
      t.len <- t.len + 1;
      Hashtbl.add t.table s id;
      id

let find_opt t s = Hashtbl.find_opt t.table s

let lookup t id =
  if id < 0 || id >= t.len then invalid_arg "Intern.lookup";
  t.rev.(id)

let size t = t.len
