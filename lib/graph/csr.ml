(* Two runs per vertex. The base run indexes edges [0, Array.length nbr)
   for vertices [0, Array.length offsets - 1). The delta run indexes the
   edges appended since the base was built: [dvtx] lists the vertices
   that have some, ascending, and the entries of vertex [dvtx.(i)] are
   [doff.(i), doff.(i + 1)) of [dnbr]/[deid], in edge-id order. Every
   delta edge id is above every base edge id, so the base run followed by
   the delta run is the edge-id order a build over all the edges gives. *)
type t = {
  nvertices : int;
  offsets : int array; (* base: length (vertices it covers) + 1 *)
  nbr : int array; (* base: destination vertex per entry *)
  eid : int array; (* base: edge id per entry *)
  plain : int; (* vertices below this have a base run and no delta run *)
  dvtx : int array;
  doff : int array; (* length (Array.length dvtx) + 1 *)
  dnbr : int array;
  deid : int array;
}

module Pool = Graql_parallel.Domain_pool

let par_edge_threshold = 8192

let of_base ~nvertices ~offsets ~nbr ~eid =
  {
    nvertices;
    offsets;
    nbr;
    eid;
    plain = nvertices;
    dvtx = [||];
    doff = [| 0 |];
    dnbr = [||];
    deid = [||];
  }

(* The builders index edges [0, nedges) of [src]/[dst], which may be
   longer. *)
let build_seq ~nvertices ~nedges ~src ~dst =
  let counts = Array.make (nvertices + 1) 0 in
  for e = 0 to nedges - 1 do
    let s = src.(e) in
    if s < 0 || s >= nvertices then invalid_arg "Csr.build: vertex out of range";
    counts.(s + 1) <- counts.(s + 1) + 1
  done;
  for i = 1 to nvertices do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let offsets = Array.copy counts in
  let nbr = Array.make nedges 0 and eid = Array.make nedges 0 in
  (* counts now doubles as the write cursor per vertex. *)
  for e = 0 to nedges - 1 do
    let s = src.(e) in
    let pos = counts.(s) in
    nbr.(pos) <- dst.(e);
    eid.(pos) <- e;
    counts.(s) <- pos + 1
  done;
  of_base ~nvertices ~offsets ~nbr ~eid

(* Parallel stable counting sort: per-chunk histograms turn into per-chunk
   write cursors (chunk c's slots for a vertex precede chunk c+1's), so
   the scatter needs no atomics and the result is byte-identical to the
   sequential build. *)
let build_par pool ~nvertices ~nedges ~src ~dst =
  let ranges = Array.of_list (Pool.chunk_ranges pool ~lo:0 ~hi:nedges ()) in
  let nchunks = Array.length ranges in
  let cnt = Array.init nchunks (fun _ -> Array.make nvertices 0) in
  let bad = Array.make (max 1 nchunks) false in
  Pool.run_tasks pool
    (List.init nchunks (fun c () ->
         let lo, hi = ranges.(c) in
         let cc = cnt.(c) in
         for e = lo to hi - 1 do
           let s = Array.unsafe_get src e in
           if s < 0 || s >= nvertices then bad.(c) <- true
           else Array.unsafe_set cc s (Array.unsafe_get cc s + 1)
         done));
  if Array.exists Fun.id bad then
    invalid_arg "Csr.build: vertex out of range";
  let offsets = Array.make (nvertices + 1) 0 in
  Pool.parallel_for_chunks pool ~lo:0 ~hi:nvertices (fun vlo vhi ->
      for v = vlo to vhi - 1 do
        let t = ref 0 in
        for c = 0 to nchunks - 1 do
          t := !t + cnt.(c).(v)
        done;
        offsets.(v + 1) <- !t
      done);
  for v = 1 to nvertices do
    offsets.(v) <- offsets.(v) + offsets.(v - 1)
  done;
  Pool.parallel_for_chunks pool ~lo:0 ~hi:nvertices (fun vlo vhi ->
      for v = vlo to vhi - 1 do
        let run = ref offsets.(v) in
        for c = 0 to nchunks - 1 do
          let here = cnt.(c).(v) in
          cnt.(c).(v) <- !run;
          run := !run + here
        done
      done);
  let nbr = Array.make nedges 0 and eid = Array.make nedges 0 in
  Pool.run_tasks pool
    (List.init nchunks (fun c () ->
         let lo, hi = ranges.(c) in
         let cc = cnt.(c) in
         for e = lo to hi - 1 do
           let s = Array.unsafe_get src e in
           let pos = Array.unsafe_get cc s in
           Array.unsafe_set nbr pos (Array.unsafe_get dst e);
           Array.unsafe_set eid pos e;
           Array.unsafe_set cc s (pos + 1)
         done));
  of_base ~nvertices ~offsets ~nbr ~eid

let build_prefix ?pool ~nvertices ~nedges ~src ~dst () =
  match pool with
  | Some pool when nedges >= par_edge_threshold && nvertices > 0 ->
      build_par pool ~nvertices ~nedges ~src ~dst
  | _ -> build_seq ~nvertices ~nedges ~src ~dst

let build ?pool ~nvertices ~src ~dst () =
  let nedges = Array.length src in
  if Array.length dst <> nedges then invalid_arg "Csr.build: length mismatch";
  build_prefix ?pool ~nvertices ~nedges ~src ~dst ()

let nvertices t = t.nvertices
let nedges t = Array.length t.nbr + Array.length t.dnbr
let base_nvertices t = Array.length t.offsets - 1

(* The delta run of the edges [lo, hi) merged with [t]'s: the new edges
   are stably sorted by vertex, so each vertex's run keeps edge-id order,
   and the merge is linear in the delta. *)
let merge_delta t ~nvertices ~src ~dst ~lo ~hi =
  let k = hi - lo in
  let order = Array.init k (fun i -> lo + i) in
  Array.stable_sort (fun a b -> Int.compare src.(a) src.(b)) order;
  let old_nv = Array.length t.dvtx in
  let dvtx = Array.make (old_nv + k) 0 and doff = Array.make (old_nv + k + 1) 0 in
  let dm = Array.length t.dnbr + k in
  let dnbr = Array.make dm 0 and deid = Array.make dm 0 in
  let nv = ref 0 and pos = ref 0 and i = ref 0 and j = ref 0 in
  while !i < old_nv || !j < k do
    let v =
      if !j = k then t.dvtx.(!i)
      else if !i = old_nv then src.(order.(!j))
      else min t.dvtx.(!i) src.(order.(!j))
    in
    dvtx.(!nv) <- v;
    doff.(!nv) <- !pos;
    if !i < old_nv && t.dvtx.(!i) = v then begin
      for x = t.doff.(!i) to t.doff.(!i + 1) - 1 do
        dnbr.(!pos) <- t.dnbr.(x);
        deid.(!pos) <- t.deid.(x);
        incr pos
      done;
      incr i
    end;
    while !j < k && src.(order.(!j)) = v do
      let e = order.(!j) in
      dnbr.(!pos) <- dst.(e);
      deid.(!pos) <- e;
      incr pos;
      incr j
    done;
    incr nv
  done;
  doff.(!nv) <- !pos;
  let dvtx = Array.sub dvtx 0 !nv in
  {
    t with
    nvertices;
    plain = min (base_nvertices t) dvtx.(0);
    dvtx;
    doff = Array.sub doff 0 (!nv + 1);
    dnbr;
    deid;
  }

(* A delta past this fraction of the base is folded into a new base. *)
let fold_ratio = 8

let append ?pool t ~nvertices ~src ~dst ~nedges:m =
  let old_m = nedges t in
  if nvertices < t.nvertices || m < old_m || Array.length src < m
     || Array.length dst < m
  then invalid_arg "Csr.append: shrinking or short arrays";
  let base_m = Array.length t.nbr in
  if (m - base_m) * fold_ratio > base_m then
    build_prefix ?pool ~nvertices ~nedges:m ~src ~dst ()
  else begin
    for e = old_m to m - 1 do
      let s = src.(e) in
      if s < 0 || s >= nvertices then
        invalid_arg "Csr.append: vertex out of range"
    done;
    if m = old_m then { t with nvertices }
    else merge_delta t ~nvertices ~src ~dst ~lo:old_m ~hi:m
  end

(* Index of [v] in [t.dvtx], or -1. *)
let find_delta t v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let w = t.dvtx.(mid) in
      if w = v then mid else if w < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.dvtx)

(* A vertex that has a delta run, lies past the base or is out of range.
   Keeping these here leaves the delta-free paths below with one range
   test, so views that never see an append read at the same cost. *)
let degree_runs t v =
  if v < 0 || v >= t.nvertices then invalid_arg "Csr.degree";
  let base =
    if v < base_nvertices t then t.offsets.(v + 1) - t.offsets.(v) else 0
  in
  let d = find_delta t v in
  if d < 0 then base else base + t.doff.(d + 1) - t.doff.(d)

let degree t v =
  if v >= 0 && v < t.plain then t.offsets.(v + 1) - t.offsets.(v)
  else degree_runs t v

let iter_runs t v f =
  if v < 0 || v >= t.nvertices then invalid_arg "Csr.iter_neighbors";
  if v < base_nvertices t then
    for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
      f ~dst:t.nbr.(i) ~eid:t.eid.(i)
    done;
  let d = find_delta t v in
  if d >= 0 then
    for i = t.doff.(d) to t.doff.(d + 1) - 1 do
      f ~dst:t.dnbr.(i) ~eid:t.deid.(i)
    done

let iter_neighbors t v f =
  if v >= 0 && v < t.plain then
    for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
      f ~dst:(Array.unsafe_get t.nbr i) ~eid:(Array.unsafe_get t.eid i)
    done
  else iter_runs t v f

let fold_neighbors t v f init =
  let acc = ref init in
  iter_neighbors t v (fun ~dst ~eid -> acc := f !acc ~dst ~eid);
  !acc

let neighbors t v =
  let out = Array.make (degree t v) (0, 0) and n = ref 0 in
  iter_neighbors t v (fun ~dst ~eid ->
      out.(!n) <- (dst, eid);
      incr n);
  out

let max_degree t =
  let m = ref 0 in
  for v = 0 to t.nvertices - 1 do
    m := max !m (degree t v)
  done;
  !m

let avg_degree t =
  if t.nvertices = 0 then 0.0
  else float_of_int (nedges t) /. float_of_int t.nvertices
