type 'k t = { levels : ('k, int) Hashtbl.t list; length : int }

let empty = { levels = []; length = 0 }
let length t = t.length

let rec find_in levels k =
  match levels with
  | [] -> None
  | level :: older -> (
      match Hashtbl.find_opt level k with
      | Some _ as hit -> hit
      | None -> find_in older k)

let find t k = find_in t.levels k

(* A fresh table: the levels being merged may be shared with older
   indexes, which must not change. *)
let merge a b =
  let m = Hashtbl.create (Hashtbl.length a + Hashtbl.length b) in
  Hashtbl.iter (Hashtbl.add m) a;
  Hashtbl.iter (Hashtbl.add m) b;
  m

let push t level =
  let n = Hashtbl.length level in
  if n = 0 then t
  else
    let rec settle cur = function
      | older :: rest when Hashtbl.length older <= Hashtbl.length cur ->
          settle (merge older cur) rest
      | levels -> cur :: levels
    in
    { levels = settle level t.levels; length = t.length + n }
