type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let s = bits64 t in
  { state = mix s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* OCaml ints are 63-bit; keep 62 bits so the value stays non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. r /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick";
  a.(int t (Array.length a))

(* Rejection-free inverse-CDF Zipf is costly to set up per call; callers
   generate many samples with the same (n, s), so memoize the CDF. The
   memo is bounded by the floats it holds, not by its entry count: a
   generator that first draws once each from many small CDFs must not
   lock its large, hot CDFs out of the table. Past the bound the table
   starts over, and a CDF larger than the bound is still kept, alone. *)
let zipf_cache : (int * float, float array) Hashtbl.t = Hashtbl.create 7
let zipf_cache_floats = ref 0
let zipf_cache_bound = 1 lsl 20

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf";
  let cdf =
    match Hashtbl.find_opt zipf_cache (n, s) with
    | Some c -> c
    | None ->
        let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
        let total = Array.fold_left ( +. ) 0.0 w in
        let acc = ref 0.0 in
        let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
        if !zipf_cache_floats + n > zipf_cache_bound then begin
          Hashtbl.reset zipf_cache;
          zipf_cache_floats := 0
        end;
        Hashtbl.add zipf_cache (n, s) cdf;
        zipf_cache_floats := !zipf_cache_floats + n;
        cdf
  in
  let u = float t 1.0 in
  (* Binary search for first index with cdf.(i) >= u. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
