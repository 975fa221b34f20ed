type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len

let[@inline never] grow t n =
  let cap = ref (Array.length t.data) in
  while !cap < n do
    cap := !cap * 2
  done;
  let data = Array.make !cap 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

(* The hot loop of every batch kernel: keep the in-capacity path small
   enough to inline at the call site (one compare, one store). *)
let[@inline] push t x =
  if t.len = Array.length t.data then grow t (t.len + 1);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Int_vec: out of bounds"

let get t i = check t i; Array.unsafe_get t.data i
let set t i x = check t i; Array.unsafe_set t.data i x
let clear t = t.len <- 0
let to_array t = Array.sub t.data 0 t.len
let of_array a = { data = Array.copy a; len = Array.length a }

let iter f t =
  for i = 0 to t.len - 1 do f (Array.unsafe_get t.data i) done

let iteri f t =
  for i = 0 to t.len - 1 do f i (Array.unsafe_get t.data i) done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let append dst src = iter (push dst) src

let blit_into src dst pos = Array.blit src.data 0 dst pos src.len

let unsafe_get t i = Array.unsafe_get t.data i

let gather src idx =
  let n = idx.len in
  let data = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get idx.data i in
    if j < 0 || j >= src.len then invalid_arg "Int_vec.gather: out of bounds";
    Array.unsafe_set data i (Array.unsafe_get src.data j)
  done;
  { data; len = n }

let sort_unique t =
  let a = to_array t in
  Array.sort compare a;
  let out = create ~capacity:(Array.length a) () in
  Array.iteri
    (fun i x -> if i = 0 || x <> a.(i - 1) then push out x)
    a;
  out
