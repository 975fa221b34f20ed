type payload =
  | Ints of { mutable data : int array }
  | Floats of { mutable data : float array }

(* Dictionary ids a column holds, for Varchar columns whose intern pool
   is shared with (and grown by) another column. *)
type id_set = { mutable seen : Bytes.t; mutable count : int }

(* Incrementally maintained ingest statistics. [t_min]/[t_max] cover the
   raw int payload (meaningful to the planner for Int/Date dtypes); the
   sketch is a linear-counting bitmap over hashed payloads giving a
   distinct estimate for non-varchar columns. A Varchar column reads its
   distinct count off its own dictionary for free, or off [t_ids] when the
   dictionary is shared. *)
type tracker = {
  mutable t_nulls : int;
  mutable t_min : int;
  mutable t_max : int;
  mutable t_has_range : bool;
  t_sketch : Bytes.t;
  t_ids : id_set option;
}

type stats = {
  st_rows : int;
  st_nulls : int;
  st_distinct : float;
  st_min : int option;
  st_max : int option;
}

type t = {
  dtype : Dtype.t;
  mutable len : int;
  payload : payload;
  dict : Graql_util.Intern.t option;
  mutable nulls : Bytes.t; (* bitmap, grows with the column *)
  mutable any_null : bool;
  mutable tracker : tracker option;
      (* None for gathered (create_sized) columns until [track_stats] *)
}

(* 8192-bit linear-counting sketch: 1 KiB per column, saturates near the
   sketch size — [stats] caps the estimate at the non-null row count. *)
let sketch_bits = 8192

let fresh_tracker ?ids () =
  {
    t_nulls = 0;
    t_min = 0;
    t_max = 0;
    t_has_range = false;
    t_sketch = Bytes.make (sketch_bits / 8) '\000';
    t_ids = ids;
  }

let add_id ids x =
  let b = x lsr 3 and m = 1 lsl (x land 7) in
  if b >= Bytes.length ids.seen then begin
    let cap = ref (max 16 (Bytes.length ids.seen)) in
    while !cap <= b do cap := !cap * 2 done;
    let seen = Bytes.make !cap '\000' in
    Bytes.blit ids.seen 0 seen 0 (Bytes.length ids.seen);
    ids.seen <- seen
  end;
  let c = Char.code (Bytes.unsafe_get ids.seen b) in
  if c land m = 0 then begin
    Bytes.unsafe_set ids.seen b (Char.unsafe_chr (c lor m));
    ids.count <- ids.count + 1
  end

let sketch_add tr x =
  let h = Graql_util.Int_table.mix x land (sketch_bits - 1) in
  let b = h lsr 3 and m = 1 lsl (h land 7) in
  Bytes.unsafe_set tr.t_sketch b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get tr.t_sketch b) lor m))

let create ?(expected = 16) dtype =
  let expected = max 16 expected in
  let payload =
    match dtype with
    | Dtype.Float -> Floats { data = Array.make expected 0.0 }
    | Dtype.Bool | Dtype.Int | Dtype.Date | Dtype.Varchar _ ->
        Ints { data = Array.make expected 0 }
  in
  let dict =
    match dtype with
    | Dtype.Varchar _ ->
        (* Dictionary capacity: enough to skip the worst of the doubling
           churn on near-unique columns without over-committing memory on
           low-cardinality ones. *)
        Some (Graql_util.Intern.create ~expected:(min expected 16384) ())
    | _ -> None
  in
  {
    dtype;
    len = 0;
    payload;
    dict;
    nulls = Bytes.make (max 2 ((expected + 7) lsr 3)) '\000';
    any_null = false;
    tracker = Some (fresh_tracker ());
  }

let dtype t = t.dtype
let length t = t.len

let grow_ints r n =
  if n > Array.length r then begin
    let cap = ref (Array.length r) in
    while !cap < n do cap := !cap * 2 done;
    let data = Array.make !cap 0 in
    Array.blit r 0 data 0 (Array.length r);
    data
  end
  else r

let grow_floats r n =
  if n > Array.length r then begin
    let cap = ref (Array.length r) in
    while !cap < n do cap := !cap * 2 done;
    let data = Array.make !cap 0.0 in
    Array.blit r 0 data 0 (Array.length r);
    data
  end
  else r

let ensure_nulls t n =
  let need = (n + 7) lsr 3 in
  if need > Bytes.length t.nulls then begin
    let cap = ref (Bytes.length t.nulls) in
    while !cap < need do cap := !cap * 2 done;
    let nulls = Bytes.make !cap '\000' in
    Bytes.blit t.nulls 0 nulls 0 (Bytes.length t.nulls);
    t.nulls <- nulls
  end

let reserve t n =
  (match t.payload with
  | Ints r -> r.data <- grow_ints r.data n
  | Floats r -> r.data <- grow_floats r.data n);
  ensure_nulls t n;
  match t.dict with
  | Some d -> Graql_util.Intern.reserve d (min n 16384)
  | None -> ()

let set_null_bit t i =
  ensure_nulls t (i + 1);
  let b = i lsr 3 and m = 1 lsl (i land 7) in
  Bytes.unsafe_set t.nulls b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.nulls b) lor m));
  t.any_null <- true

let is_null t i =
  t.any_null
  && i lsr 3 < Bytes.length t.nulls
  && Char.code (Bytes.unsafe_get t.nulls (i lsr 3)) land (1 lsl (i land 7)) <> 0

let note_int t x =
  match t.tracker with
  | None -> ()
  | Some tr ->
      if tr.t_has_range then begin
        if x < tr.t_min then tr.t_min <- x;
        if x > tr.t_max then tr.t_max <- x
      end
      else begin
        tr.t_min <- x;
        tr.t_max <- x;
        tr.t_has_range <- true
      end;
      match (t.dict, tr.t_ids) with
      | None, _ -> sketch_add tr x
      | Some _, Some ids -> add_id ids x
      | Some _, None -> ()

let note_float t x =
  match t.tracker with
  | None -> ()
  | Some tr -> sketch_add tr (Int64.to_int (Int64.bits_of_float x))

let push_int t x =
  (match t.payload with
  | Ints r ->
      r.data <- grow_ints r.data (t.len + 1);
      Array.unsafe_set r.data t.len x
  | Floats _ -> invalid_arg "Column: int payload on float column");
  ensure_nulls t (t.len + 1);
  note_int t x;
  t.len <- t.len + 1

let push_float t x =
  (match t.payload with
  | Floats r ->
      r.data <- grow_floats r.data (t.len + 1);
      Array.unsafe_set r.data t.len x
  | Ints _ -> invalid_arg "Column: float payload on int column");
  ensure_nulls t (t.len + 1);
  note_float t x;
  t.len <- t.len + 1

let append_null t =
  (match t.payload with
  | Ints r ->
      r.data <- grow_ints r.data (t.len + 1);
      Array.unsafe_set r.data t.len 0
  | Floats r ->
      r.data <- grow_floats r.data (t.len + 1);
      Array.unsafe_set r.data t.len 0.0);
  set_null_bit t t.len;
  (match t.tracker with
  | Some tr -> tr.t_nulls <- tr.t_nulls + 1
  | None -> ());
  t.len <- t.len + 1

let type_error t v =
  failwith
    (Printf.sprintf "type mismatch: column is %s, value is %s"
       (Dtype.to_string t.dtype) (Value.to_string v))

let append t v =
  match (t.dtype, v) with
  | _, Value.Null -> append_null t
  | Dtype.Bool, Value.Bool b -> push_int t (if b then 1 else 0)
  | Dtype.Int, Value.Int i -> push_int t i
  | Dtype.Date, Value.Date d -> push_int t d
  | Dtype.Float, Value.Float f -> push_float t f
  | Dtype.Float, Value.Int i -> push_float t (float_of_int i)
  | Dtype.Varchar _, Value.Str s -> (
      match t.dict with
      | Some dict -> push_int t (Graql_util.Intern.intern dict s)
      | None -> assert false)
  | (Dtype.Bool | Dtype.Int | Dtype.Date | Dtype.Float | Dtype.Varchar _), _ ->
      type_error t v

let check t i = if i < 0 || i >= t.len then invalid_arg "Column: out of bounds"

let get_int t i =
  check t i;
  match t.payload with
  | Ints r -> Array.unsafe_get r.data i
  | Floats _ -> invalid_arg "Column.get_int on float column"

let get_float t i =
  check t i;
  match t.payload with
  | Floats r -> Array.unsafe_get r.data i
  | Ints r -> float_of_int (Array.unsafe_get r.data i)

(* Raw payload views for the batch kernels: the arrays are at least [len]
   long; slots past [len] are garbage. Callers index [0, len) only. *)
let int_data t =
  match t.payload with
  | Ints r -> r.data
  | Floats _ -> invalid_arg "Column.int_data on float column"

let float_data t =
  match t.payload with
  | Floats r -> r.data
  | Ints _ -> invalid_arg "Column.float_data on int column"

let null_mask t = t.nulls
let has_nulls t = t.any_null

let dict_lookup t id =
  match t.dict with
  | Some dict -> Graql_util.Intern.lookup dict id
  | None -> invalid_arg "Column.dict_lookup on non-varchar column"

let intern_id t s =
  match t.dict with
  | Some dict -> Graql_util.Intern.find_opt dict s
  | None -> invalid_arg "Column.intern_id on non-varchar column"

let dict_size t =
  match t.dict with
  | Some dict -> Graql_util.Intern.size dict
  | None -> invalid_arg "Column.dict_size on non-varchar column"

let same_dict a b =
  match (a.dict, b.dict) with Some x, Some y -> x == y | _ -> false

let stats t =
  match t.tracker with
  | None -> None
  | Some tr ->
      let nonnull = t.len - tr.t_nulls in
      let distinct =
        match (t.dict, tr.t_ids) with
        | Some _, Some ids -> float_of_int ids.count
        | Some d, None -> float_of_int (Graql_util.Intern.size d)
        | None, _ ->
            if nonnull = 0 then 0.0
            else begin
              (* Linear counting: -m ln(z/m) for z empty bits of m. *)
              let zeros = ref 0 in
              Bytes.iter
                (fun c ->
                  let c = Char.code c in
                  for b = 0 to 7 do
                    if c land (1 lsl b) = 0 then incr zeros
                  done)
                tr.t_sketch;
              let m = float_of_int sketch_bits in
              let est =
                if !zeros = 0 then float_of_int nonnull
                else -.m *. log (float_of_int !zeros /. m)
              in
              Float.min (Float.max 1.0 est) (float_of_int nonnull)
            end
      in
      let range_ok =
        tr.t_has_range
        && match t.dtype with Dtype.Int | Dtype.Date -> true | _ -> false
      in
      Some
        {
          st_rows = t.len;
          st_nulls = tr.t_nulls;
          st_distinct = distinct;
          st_min = (if range_ok then Some tr.t_min else None);
          st_max = (if range_ok then Some tr.t_max else None);
        }

(* Pre-sized column for scatter/gather fills: length [n], every slot a
   non-null zero until written. Varchar output shares the source column's
   intern pool so dictionary ids can be copied verbatim — interning later
   strings through a shared pool is safe because existing ids never move.
   Gathered columns carry no statistics tracker (writes bypass the ingest
   path) until [track_stats]; the planner falls back to plain row counts
   for them. *)
let create_sized ?share_dict_of dtype n =
  let payload =
    match dtype with
    | Dtype.Float -> Floats { data = Array.make (max n 1) 0.0 }
    | Dtype.Bool | Dtype.Int | Dtype.Date | Dtype.Varchar _ ->
        Ints { data = Array.make (max n 1) 0 }
  in
  let dict =
    match dtype with
    | Dtype.Varchar _ -> (
        match share_dict_of with
        | Some { dict = Some d; _ } -> Some d
        | Some { dict = None; _ } | None ->
            invalid_arg "Column.create_sized: varchar requires share_dict_of")
    | _ -> None
  in
  {
    dtype;
    len = n;
    payload;
    dict;
    nulls = Bytes.make (max 2 ((n + 7) lsr 3)) '\000';
    any_null = false;
    tracker = None;
  }

(* [gather_into ~src ~rows ~dst ~lo ~hi] writes src.(rows.(i)) into
   dst.(i) for i in [lo, hi). [dst] must come from [create_sized] with the
   same dtype (and, for varchar, a shared dictionary). Disjoint [lo, hi)
   ranges may be filled from different domains provided the boundaries are
   multiples of 8 (the null bitmap is written bytewise). *)
let gather_into ~src ~rows ~dst ~lo ~hi =
  if src.dtype <> dst.dtype then invalid_arg "Column.gather_into: dtype mismatch";
  (match (src.dict, dst.dict) with
  | Some a, Some b when a != b ->
      invalid_arg "Column.gather_into: varchar dictionaries not shared"
  | _ -> ());
  (match (src.payload, dst.payload) with
  | Ints s, Ints d ->
      for i = lo to hi - 1 do
        Array.unsafe_set d.data i
          (Array.unsafe_get s.data (Array.unsafe_get rows i))
      done
  | Floats s, Floats d ->
      for i = lo to hi - 1 do
        Array.unsafe_set d.data i
          (Array.unsafe_get s.data (Array.unsafe_get rows i))
      done
  | Ints _, Floats _ | Floats _, Ints _ ->
      invalid_arg "Column.gather_into: payload mismatch");
  if src.any_null then begin
    let saw = ref false in
    for i = lo to hi - 1 do
      if is_null src (Array.unsafe_get rows i) then begin
        saw := true;
        let b = i lsr 3 and m = 1 lsl (i land 7) in
        Bytes.unsafe_set dst.nulls b
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst.nulls b) lor m))
      end
    done;
    (* Benign when raced from several domains: every writer stores [true],
       and the fork-join barrier publishes the final value. *)
    if !saw then dst.any_null <- true
  end

let get t i =
  check t i;
  if is_null t i then Value.Null
  else
    match t.dtype with
    | Dtype.Bool -> Value.Bool (get_int t i <> 0)
    | Dtype.Int -> Value.Int (get_int t i)
    | Dtype.Date -> Value.Date (get_int t i)
    | Dtype.Float -> Value.Float (get_float t i)
    | Dtype.Varchar _ -> Value.Str (dict_lookup t (get_int t i))

let approx_bytes t =
  let payload =
    match t.payload with
    | Ints _ | Floats _ -> 8 * t.len
  in
  let nulls = (t.len + 7) / 8 in
  let dict =
    match t.dict with
    | None -> 0
    | Some d ->
        let n = Graql_util.Intern.size d in
        let chars = ref 0 in
        for i = 0 to n - 1 do
          chars := !chars + String.length (Graql_util.Intern.lookup d i) + 24
        done;
        !chars
  in
  payload + nulls + dict

(* Ingest-equivalent statistics for a gathered column, from one scan of
   its payload: the figures [append] would have tracked had the same
   values been appended one by one. A dictionary-shared Varchar column
   counts the ids it holds, so its distinct count neither reports the
   shared pool's size nor moves when another column grows the pool. *)
let track_stats t =
  if Option.is_none t.tracker then begin
    let ids =
      match t.dict with
      | Some _ -> Some { seen = Bytes.empty; count = 0 }
      | None -> None
    in
    let tr = fresh_tracker ?ids () in
    t.tracker <- Some tr;
    for i = 0 to t.len - 1 do
      if is_null t i then tr.t_nulls <- tr.t_nulls + 1
      else
        match t.payload with
        | Ints r -> note_int t (Array.unsafe_get r.data i)
        | Floats r -> note_float t (Array.unsafe_get r.data i)
    done
  end
