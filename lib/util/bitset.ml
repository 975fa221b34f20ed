type t = { len : int; words : Bytes.t }

(* One byte per 8 bits; Bytes gives cheap unsafe access and copy. *)

let nbytes len = (len + 7) lsr 3

let create len =
  if len < 0 then invalid_arg "Bitset.create";
  { len; words = Bytes.make (nbytes len) '\000' }

let length t = t.len

let fill t b =
  Bytes.fill t.words 0 (Bytes.length t.words) (if b then '\xff' else '\000');
  (* Keep bits beyond [len] clear so cardinal/iter stay exact. *)
  if b && t.len land 7 <> 0 then begin
    let last = Bytes.length t.words - 1 in
    let keep = (1 lsl (t.len land 7)) - 1 in
    Bytes.unsafe_set t.words last (Char.unsafe_chr keep)
  end

let create_full len =
  let t = create len in
  fill t true;
  t

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: index out of bounds"

let set t i =
  check t i;
  let b = i lsr 3 and m = 1 lsl (i land 7) in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) lor m))

let clear t i =
  check t i;
  let b = i lsr 3 and m = 1 lsl (i land 7) in
  Bytes.unsafe_set t.words b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.words b) land lnot m land 0xff))

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let mem_padded t i =
  if i < 0 then invalid_arg "Bitset: index out of bounds";
  i < t.len
  && Char.code (Bytes.unsafe_get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let assign t i b = if b then set t i else clear t i

let popcount_byte =
  let tbl = Array.init 256 (fun i ->
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
      go i 0)
  in
  fun c -> Array.unsafe_get tbl (Char.code c)

let cardinal t =
  let n = Bytes.length t.words in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + popcount_byte (Bytes.unsafe_get t.words i)
  done;
  !acc

let is_empty t =
  let n = Bytes.length t.words in
  let rec go i = i >= n || (Bytes.unsafe_get t.words i = '\000' && go (i + 1)) in
  go 0

let binop op dst src =
  if dst.len <> src.len then invalid_arg "Bitset: domain mismatch";
  let n = Bytes.length dst.words in
  for i = 0 to n - 1 do
    let a = Char.code (Bytes.unsafe_get dst.words i)
    and b = Char.code (Bytes.unsafe_get src.words i) in
    Bytes.unsafe_set dst.words i (Char.unsafe_chr (op a b land 0xff))
  done

let union_into dst src = binop ( lor ) dst src
let inter_into dst src = binop ( land ) dst src
let diff_into dst src = binop (fun a b -> a land lnot b) dst src

let copy t = { len = t.len; words = Bytes.copy t.words }

let padded t n =
  if n < t.len then invalid_arg "Bitset.padded";
  let words = Bytes.make (nbytes n) '\000' in
  Bytes.blit t.words 0 words 0 (Bytes.length t.words);
  { len = n; words }

let iter f t =
  let n = Bytes.length t.words in
  for b = 0 to n - 1 do
    let w = Char.code (Bytes.unsafe_get t.words b) in
    if w <> 0 then
      for j = 0 to 7 do
        if w land (1 lsl j) <> 0 then f ((b lsl 3) + j)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list len l =
  let t = create len in
  List.iter (set t) l;
  t

let equal a b = a.len = b.len && Bytes.equal a.words b.words

exception Found of int

let choose t =
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i
