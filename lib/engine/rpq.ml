module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Value = Graql_storage.Value
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset
module Csr = Graql_graph.Csr
module Bitset = Graql_util.Bitset
module Int_vec = Graql_util.Int_vec
module Pool = Graql_parallel.Domain_pool
module Metrics = Graql_obs.Metrics

exception Rpq_error of Loc.t * string

let error loc fmt = Printf.ksprintf (fun msg -> raise (Rpq_error (loc, msg))) fmt
let norm = String.lowercase_ascii

let no_slots : Step_cond.slot_lookup =
  { Step_cond.find_slot = (fun _ -> None) }

(* [rpq.*] counters are fixed by query and data — BFS levels, visited
   product pairs and noted edges are sets, not schedules — so they stay
   invariant across domain counts like the [path.*] family. *)
let m_compiles = Metrics.counter "rpq.compiles"
let m_evals = Metrics.counter "rpq.evals"
let m_visited = Metrics.counter "rpq.visited_pairs"
let m_noted = Metrics.counter "rpq.noted_edges"
let h_level = Metrics.histogram "rpq.level_pairs"

(* ------------------------------------------------------------------ *)
(* Shape: states and transitions, before any condition compilation     *)

type state_info = {
  si_label : string;
  si_estep : Ast.estep option;
  si_vstep : Ast.vstep option;
  si_initial : bool;
  si_accepting : bool;
}

(* A transition spec: traverse [sp_estep], land on [sp_land] ([None] =
   unconstrained). Forward automata have one spec per body atom; reversed
   automata one per forward transition. *)
type pspec = { sp_estep : Ast.estep; sp_land : Ast.vstep option }

type proto = {
  p_nstates : int;
  p_specs : pspec array;
  p_entry : int option array;  (* arriving spec per state; None at entry *)
  p_trans : (int * int) list array;  (* per state: (spec idx, dst) *)
  p_initial : (int * Ast.vstep option) list;
      (* initial states; the vstep is a constraint the seed must satisfy
         (reversed automata seed at forward-accepting states, so the seed
         must re-pass the forward arrival constraint) *)
  p_accepting : bool array;
  p_chain : (int * int) option array;
      (* backward can-complete chain: at state [s], (spec, s+1) *)
  p_base : int option;  (* final chain state (complete-traversal state) *)
  p_note : [ `Inline | `Sweep | `Off ];
  p_reversed : bool;
}

let flip_estep (e : Ast.estep) =
  {
    e with
    Ast.e_dir = (match e.Ast.e_dir with Ast.Out -> Ast.In | Ast.In -> Ast.Out);
  }

let single_state ~reversed =
  {
    p_nstates = 1;
    p_specs = [||];
    p_entry = [| None |];
    p_trans = [| [] |];
    p_initial = [ (0, None) ];
    p_accepting = [| true |];
    p_chain = [| None |];
    p_base = None;
    p_note = `Off;
    p_reversed = reversed;
  }

(* States are positions in the group body: 0 = entry, j = "j atoms of the
   current traversal matched". [*] and [+] loop the final position back to
   1 (re-entering the body consumes atom 0); [{n}] unrolls the body n
   times into a chain. Every state except the entry has a unique arriving
   atom, which is what lets conditions compile per state. *)
let forward_proto ~(body : (Ast.estep * Ast.vstep) list) ~(op : Ast.rx_op) =
  let atoms = Array.of_list body in
  let k = Array.length atoms in
  let specs =
    Array.map (fun (e, v) -> { sp_estep = e; sp_land = Some v }) atoms
  in
  if k = 0 then single_state ~reversed:false
  else
    match op with
    | Ast.Rx_star | Ast.Rx_plus ->
        let n = k + 1 in
        let entry = Array.init n (fun s -> if s = 0 then None else Some (s - 1)) in
        let trans = Array.make n [] in
        for j = 0 to k - 1 do
          trans.(j) <- [ (j, j + 1) ]
        done;
        trans.(k) <- [ (0, 1) ];
        let accepting = Array.make n false in
        accepting.(k) <- true;
        if op = Ast.Rx_star then accepting.(0) <- true;
        let chain = Array.make n None in
        for s = 1 to k - 1 do
          chain.(s) <- Some (s, s + 1)
        done;
        {
          p_nstates = n;
          p_specs = specs;
          p_entry = entry;
          p_trans = trans;
          p_initial = [ (0, None) ];
          p_accepting = accepting;
          p_chain = chain;
          p_base = Some k;
          p_note = (if k = 1 then `Inline else `Sweep);
          p_reversed = false;
        }
    | Ast.Rx_count c ->
        if c <= 0 then single_state ~reversed:false
        else begin
          let n = (c * k) + 1 in
          let entry =
            Array.init n (fun s -> if s = 0 then None else Some ((s - 1) mod k))
          in
          let trans = Array.make n [] in
          for j = 0 to n - 2 do
            trans.(j) <- [ (j mod k, j + 1) ]
          done;
          let accepting = Array.make n false in
          accepting.(n - 1) <- true;
          let chain = Array.make n None in
          for s = 1 to n - 2 do
            chain.(s) <- Some (s mod k, s + 1)
          done;
          {
            p_nstates = n;
            p_specs = specs;
            p_entry = entry;
            p_trans = trans;
            p_initial = [ (0, None) ];
            p_accepting = accepting;
            p_chain = chain;
            p_base = Some (n - 1);
            p_note = `Sweep;
            p_reversed = false;
          }
        end

(* The reversal of the language: flip every transition's edge direction,
   move the landing constraint to the forward source position (arriving at
   reversed state s means "this vertex sits at forward position s", whose
   constraint is the forward arriving atom of s), seed at forward
   accepting states, accept at the forward entry. Traversed-edge
   reporting is not supported — the planner only reverses when the query
   cannot observe edges. *)
let reversed_proto fwd =
  let specs = ref [] in
  let nspecs = ref 0 in
  let trans = Array.make fwd.p_nstates [] in
  let entry = Array.make fwd.p_nstates None in
  Array.iteri
    (fun s outs ->
      List.iter
        (fun (spec_i, s') ->
          let a = fwd.p_specs.(spec_i) in
          let land_v =
            match fwd.p_entry.(s) with
            | Some e -> fwd.p_specs.(e).sp_land
            | None -> None
          in
          let idx = !nspecs in
          incr nspecs;
          specs := { sp_estep = flip_estep a.sp_estep; sp_land = land_v } :: !specs;
          trans.(s') <- (idx, s) :: trans.(s');
          entry.(s) <- Some idx)
        outs)
    fwd.p_trans;
  let specs = Array.of_list (List.rev !specs) in
  let trans = Array.map List.rev trans in
  let initial = ref [] in
  Array.iteri
    (fun s acc ->
      if acc then
        let check =
          match fwd.p_entry.(s) with
          | Some e -> fwd.p_specs.(e).sp_land
          | None -> None
        in
        initial := (s, check) :: !initial)
    fwd.p_accepting;
  let accepting = Array.make fwd.p_nstates false in
  accepting.(0) <- true;
  {
    p_nstates = fwd.p_nstates;
    p_specs = specs;
    p_entry = entry;
    p_trans = trans;
    p_initial = List.rev !initial;
    p_accepting = accepting;
    p_chain = Array.make fwd.p_nstates None;
    p_base = None;
    p_note = `Off;
    p_reversed = true;
  }

let proto_of ~body ~op ~reversed =
  let fwd = forward_proto ~body ~op in
  if reversed then reversed_proto fwd else fwd

let vstep_name (v : Ast.vstep) =
  match v.Ast.v_kind with
  | Ast.V_named n -> n
  | Ast.V_any -> "[ ]"
  | Ast.V_seeded (sg, vt) -> Printf.sprintf "%s<%s>" vt sg

let spec_label sp =
  let e = sp.sp_estep in
  let ename =
    match e.Ast.e_kind with Ast.E_named n -> n | Ast.E_any -> "[ ]"
  in
  let arrow =
    match e.Ast.e_dir with
    | Ast.Out -> Printf.sprintf "--%s-->" ename
    | Ast.In -> Printf.sprintf "<--%s--" ename
  in
  arrow ^ " "
  ^ (match sp.sp_land with Some v -> vstep_name v | None -> "[ ]")

let states_of_proto p =
  Array.init p.p_nstates (fun s ->
      let initial = List.mem_assoc s p.p_initial in
      let arriving = Option.map (fun i -> p.p_specs.(i)) p.p_entry.(s) in
      let body =
        match arriving with
        | None -> Printf.sprintf "rx s%d (entry)" s
        | Some sp -> Printf.sprintf "rx s%d: %s" s (spec_label sp)
      in
      {
        si_label = (body ^ if p.p_accepting.(s) then " [accept]" else "");
        si_estep = Option.map (fun sp -> sp.sp_estep) arriving;
        si_vstep = Option.bind arriving (fun sp -> sp.sp_land);
        si_initial = initial;
        si_accepting = p.p_accepting.(s);
      })

let shape ~body ~op ~reversed = states_of_proto (proto_of ~body ~op ~reversed)

(* ------------------------------------------------------------------ *)
(* Compilation: bind a proto to one universe                           *)

type traversal = { tr_eidx : int; tr_out : bool; tr_other : int }

type cspec = {
  c_travs : traversal list array;  (* by source vertex-type index *)
  c_econd : Step_cond.t option array;  (* by edge-set index *)
  c_vcond : Step_cond.t option array;  (* by landing vertex-type index *)
}

type tcheck = Ck_pass | Ck_cond of Step_cond.t | Ck_reject

type vcheck = { vc_treq : int option; vc_cond : tcheck array }

type t = {
  a_u : Pack.universe;
  a_nstates : int;
  a_specs : cspec array;
  a_trans : (int * int) list array;
  a_initial : (int * vcheck option) list;
  a_accepting : bool array;
  a_chain : (int * int) option array;
  a_base : int option;
  a_note : [ `Inline | `Sweep | `Off ];
  a_exit : vcheck option;
  a_states : state_info array;
  a_reversed : bool;
}

let nstates a = a.a_nstates
let states a = a.a_states
let is_reversed a = a.a_reversed

(* Which traversals (edge set, CSR direction, landing type) can realize a
   spec from a given left type — the same matching as the row engine. *)
let traversals_of (u : Pack.universe) (e : Ast.estep) ~ltidx ~required_other =
  let lname = norm (Vset.name u.Pack.vtypes.(ltidx)) in
  let consider eidx eset acc =
    let src = norm (Eset.src_type eset) and dst = norm (Eset.dst_type eset) in
    let name_ok =
      match e.Ast.e_kind with
      | Ast.E_named n -> norm n = norm (Eset.name eset)
      | Ast.E_any -> true
    in
    if not name_ok then acc
    else
      match e.Ast.e_dir with
      | Ast.Out ->
          if src <> lname then acc
          else (
            match Pack.vtype_index u (Eset.dst_type eset) with
            | Some o
              when (match required_other with Some r -> r = o | None -> true)
              ->
                { tr_eidx = eidx; tr_out = true; tr_other = o } :: acc
            | _ -> acc)
      | Ast.In ->
          if dst <> lname then acc
          else (
            match Pack.vtype_index u (Eset.src_type eset) with
            | Some o
              when (match required_other with Some r -> r = o | None -> true)
              ->
                { tr_eidx = eidx; tr_out = false; tr_other = o } :: acc
            | _ -> acc)
  in
  let acc = ref [] in
  Array.iteri (fun eidx eset -> acc := consider eidx eset !acc) u.Pack.etypes;
  List.rev !acc

let validate_body ~(u : Pack.universe) body =
  List.iter
    (fun ((e : Ast.estep), (v : Ast.vstep)) ->
      if v.Ast.v_label <> None then
        error v.Ast.v_loc "labels are not supported inside path regexes";
      if e.Ast.e_label <> None then
        error e.Ast.e_loc "labels are not supported inside path regexes";
      match v.Ast.v_kind with
      | Ast.V_seeded _ ->
          error v.Ast.v_loc "subgraph seeds are not allowed inside regexes"
      | Ast.V_named n ->
          if Pack.vtype_index u n = None then
            error v.Ast.v_loc "no such vertex type %S" n
      | Ast.V_any -> ())
    body

let compile_spec ~params ~(u : Pack.universe) (sp : pspec) : cspec =
  let e = sp.sp_estep in
  let required_other =
    match sp.sp_land with
    | Some { Ast.v_kind = Ast.V_named n; _ } -> Pack.vtype_index u n
    | _ -> None
  in
  let nv = Array.length u.Pack.vtypes in
  let ne = Array.length u.Pack.etypes in
  let travs =
    Array.init nv (fun ltidx -> traversals_of u e ~ltidx ~required_other)
  in
  let econd = Array.make ne None in
  let vcond = Array.make nv None in
  let e_self =
    match e.Ast.e_kind with Ast.E_named n -> [ n ] | Ast.E_any -> []
  in
  let v_self =
    match sp.sp_land with
    | Some { Ast.v_kind = Ast.V_named n; _ } -> [ n ]
    | _ -> []
  in
  Array.iter
    (List.iter (fun tr ->
         (match e.Ast.e_cond with
         | Some c when econd.(tr.tr_eidx) = None ->
             let eset = u.Pack.etypes.(tr.tr_eidx) in
             econd.(tr.tr_eidx) <-
               (try
                  Some
                    (Step_cond.compile_edge ~params ~universe:u ~slots:no_slots
                       ~self_names:e_self ~eset c)
                with Compile_expr.Compile_error (loc, msg) -> error loc "%s" msg)
         | _ -> ());
         match Option.bind sp.sp_land (fun v -> v.Ast.v_cond) with
         | Some c when vcond.(tr.tr_other) = None ->
             let vset = u.Pack.vtypes.(tr.tr_other) in
             vcond.(tr.tr_other) <-
               (try
                  Some
                    (Step_cond.compile_vertex ~params ~universe:u
                       ~slots:no_slots ~self_names:v_self ~vset c)
                with Compile_expr.Compile_error (loc, msg) -> error loc "%s" msg)
         | _ -> ()))
    travs;
  { c_travs = travs; c_econd = econd; c_vcond = vcond }

(* A seed/exit constraint: required type plus per-type condition. For
   [\[ \]]-with-condition checks (legal inside bodies) the condition is
   compiled per type; types where it does not compile cannot match. *)
let compile_vcheck ~params ~(u : Pack.universe) ~allow_any_cond
    (v : Ast.vstep) : vcheck option =
  let nv = Array.length u.Pack.vtypes in
  match v.Ast.v_kind with
  | Ast.V_seeded _ ->
      error v.Ast.v_loc "subgraph seeds are not allowed inside regexes"
  | Ast.V_any -> (
      match v.Ast.v_cond with
      | None -> None
      | Some _ when not allow_any_cond ->
          error v.Ast.v_loc "conditions are not allowed on [ ] steps"
      | Some c ->
          let conds =
            Array.init nv (fun t ->
                try
                  Ck_cond
                    (Step_cond.compile_vertex ~params ~universe:u
                       ~slots:no_slots ~self_names:[]
                       ~vset:u.Pack.vtypes.(t) c)
                with Compile_expr.Compile_error _ -> Ck_reject)
          in
          Some { vc_treq = None; vc_cond = conds })
  | Ast.V_named n -> (
      match Pack.vtype_index u n with
      | None -> error v.Ast.v_loc "no such vertex type or label %S" n
      | Some t ->
          let conds = Array.make nv Ck_pass in
          (match v.Ast.v_cond with
          | None -> ()
          | Some c ->
              conds.(t) <-
                (try
                   Ck_cond
                     (Step_cond.compile_vertex ~params ~universe:u
                        ~slots:no_slots ~self_names:[ n ]
                        ~vset:u.Pack.vtypes.(t) c)
                 with Compile_expr.Compile_error (loc, msg) ->
                   error loc "%s" msg));
          Some { vc_treq = Some t; vc_cond = conds })

let vcheck_pass ch cell =
  let t = Pack.tidx cell in
  (match ch.vc_treq with Some r -> r = t | None -> true)
  &&
  match ch.vc_cond.(t) with
  | Ck_pass -> true
  | Ck_reject -> false
  | Ck_cond c -> Step_cond.eval_vertex c ~row:[||] ~vertex:(Pack.id cell)

let compile ~params ~u ?(reversed = false) ?exit_vstep ~body ~op ~loc () =
  (match op with
  | Ast.Rx_count n when n < 0 -> error loc "negative repetition count"
  | _ -> ());
  validate_body ~u body;
  let p = proto_of ~body ~op ~reversed in
  let specs = Array.map (compile_spec ~params ~u) p.p_specs in
  let initial =
    List.map
      (fun (s, v) ->
        ( s,
          Option.bind v (fun v ->
              compile_vcheck ~params ~u ~allow_any_cond:true v) ))
      p.p_initial
  in
  let exit =
    Option.bind exit_vstep (fun v ->
        compile_vcheck ~params ~u ~allow_any_cond:false v)
  in
  Metrics.incr m_compiles;
  {
    a_u = u;
    a_nstates = p.p_nstates;
    a_specs = specs;
    a_trans = p.p_trans;
    a_initial = initial;
    a_accepting = p.p_accepting;
    a_chain = p.p_chain;
    a_base = p.p_base;
    a_note = p.p_note;
    a_exit = exit;
    a_states = states_of_proto p;
    a_reversed = reversed;
  }

(* ------------------------------------------------------------------ *)
(* Evaluation: frontier BFS over the graph × automaton product          *)

let par_threshold = 2048

let eval a ?pool ?stats ?note ~start () =
  Metrics.incr m_evals;
  let u = a.a_u in
  let nv = Array.length u.Pack.vtypes in
  (* visited.(state).(tidx): lazily allocated bitset rows *)
  let vis = Array.init a.a_nstates (fun _ -> Array.make nv None) in
  let get_vis s t =
    match vis.(s).(t) with
    | Some b -> b
    | None ->
        let b = Bitset.create (Vset.size u.Pack.vtypes.(t)) in
        vis.(s).(t) <- Some b;
        b
  in
  let mem_vis s t id =
    match vis.(s).(t) with Some b -> Bitset.mem b id | None -> false
  in
  let stidx = Pack.tidx start and sid = Pack.id start in
  let frontier = ref [] in
  List.iter
    (fun (s, check) ->
      let ok = match check with Some ch -> vcheck_pass ch start | None -> true in
      if ok && not (mem_vis s stidx sid) then begin
        Bitset.set (get_vis s stidx) sid;
        frontier := (s, start) :: !frontier
      end)
    a.a_initial;
  (* Noted edges go straight into the caller's per-edge-type bitsets; the
     counter counts every note (repeats included) and is published once. *)
  let noted = ref 0 in
  let do_note =
    match note with
    | Some ebits ->
        fun eidx eid ->
          incr noted;
          Bitset.set (Pack.edge_bits u ebits eidx) eid
    | None -> fun _ _ -> ()
  in
  let inline = a.a_note = `Inline && note <> None in
  (* Expand one product pair; [emit] receives each valid traversal. *)
  let expand_pair (s, cell) emit =
    let ct = Pack.tidx cell and cid = Pack.id cell in
    List.iter
      (fun (spec_i, dst) ->
        let sp = a.a_specs.(spec_i) in
        List.iter
          (fun tr ->
            let eset = u.Pack.etypes.(tr.tr_eidx) in
            let csr = if tr.tr_out then Eset.forward eset else Eset.reverse eset in
            Csr.iter_neighbors csr cid (fun ~dst:nbr ~eid ->
                let eok =
                  match sp.c_econd.(tr.tr_eidx) with
                  | Some c -> Step_cond.eval_edge c ~row:[||] ~edge:eid
                  | None -> true
                in
                if eok then
                  let vok =
                    match sp.c_vcond.(tr.tr_other) with
                    | Some c -> Step_cond.eval_vertex c ~row:[||] ~vertex:nbr
                    | None -> true
                  in
                  if vok then emit ~dst ~tidx:tr.tr_other ~nbr ~eidx:tr.tr_eidx ~eid))
          sp.c_travs.(ct))
      a.a_trans.(s)
  in
  let absorb next ~dst ~tidx ~nbr ~eidx ~eid =
    if inline then do_note eidx eid;
    let b = get_vis dst tidx in
    if not (Bitset.mem b nbr) then begin
      Bitset.set b nbr;
      next := (dst, Pack.pack ~tidx ~id:nbr) :: !next
    end
  in
  let rec loop fr =
    match fr with
    | [] -> ()
    | _ ->
        let n = List.length fr in
        Metrics.observe h_level (float_of_int n);
        let next = ref [] in
        (match pool with
        | Some pool when n >= par_threshold ->
            let arr = Array.of_list fr in
            (* Chunk-parallel level expansion: workers only read the
               visited bitsets; discoveries merge in chunk order and the
               per-level visited sets are plain set unions, so results are
               identical at any domain count. *)
            let acc =
              Pool.parallel_reduce pool
                ~init:(fun () -> ref [])
                ~body:(fun out i ->
                  expand_pair arr.(i) (fun ~dst ~tidx ~nbr ~eidx ~eid ->
                      out := (dst, tidx, nbr, eidx, eid) :: !out))
                ~merge:(fun x y ->
                  x := List.rev_append (List.rev !y) !x;
                  x)
                ~lo:0 ~hi:n
            in
            List.iter
              (fun (dst, tidx, nbr, eidx, eid) ->
                absorb next ~dst ~tidx ~nbr ~eidx ~eid)
              (List.rev !acc)
        | _ ->
            List.iter (fun pair -> expand_pair pair (absorb next)) fr);
        loop (List.rev !next)
  in
  loop (List.rev !frontier);
  (* Per-state visited sizes: profile rows and rpq.* counters. *)
  let total = ref 0 in
  Array.iteri
    (fun s row ->
      let c =
        Array.fold_left
          (fun acc b -> match b with Some b -> acc + Bitset.cardinal b | None -> acc)
          0 row
      in
      total := !total + c;
      match stats with
      | Some st when s < Array.length st -> st.(s) <- st.(s) + c
      | _ -> ())
    vis;
  Metrics.add m_visited !total;
  (* Edge noting for multi-atom bodies and {n}: an edge is on a complete
     (and for {n}, full-length) traversal iff its source is visited at the
     transition's state and its target can still complete — the backward
     "can-complete" chain from the final body position. *)
  (if note <> None && a.a_note = `Sweep then
     match a.a_base with
     | None -> ()
     | Some base ->
         let cc = Array.init a.a_nstates (fun _ -> Array.make nv None) in
         cc.(base) <- vis.(base);
         let can_complete s tidx id =
           match cc.(s).(tidx) with Some b -> Bitset.mem b id | None -> false
         in
         let reaches sp t uid next =
           let hit = ref false in
           List.iter
             (fun tr ->
               if not !hit then
                 let eset = u.Pack.etypes.(tr.tr_eidx) in
                 let csr =
                   if tr.tr_out then Eset.forward eset else Eset.reverse eset
                 in
                 Csr.iter_neighbors csr uid (fun ~dst:nbr ~eid ->
                     if not !hit then
                       let eok =
                         match sp.c_econd.(tr.tr_eidx) with
                         | Some c -> Step_cond.eval_edge c ~row:[||] ~edge:eid
                         | None -> true
                       in
                       if eok then
                         let vok =
                           match sp.c_vcond.(tr.tr_other) with
                           | Some c ->
                               Step_cond.eval_vertex c ~row:[||] ~vertex:nbr
                           | None -> true
                         in
                         if vok && can_complete next tr.tr_other nbr then
                           hit := true))
             sp.c_travs.(t);
           !hit
         in
         for s = base - 1 downto 1 do
           match a.a_chain.(s) with
           | None -> ()
           | Some (spec_i, next) ->
               let sp = a.a_specs.(spec_i) in
               Array.iteri
                 (fun t bo ->
                   match bo with
                   | None -> ()
                   | Some b ->
                       let keep = Bitset.create (Bitset.length b) in
                       Bitset.iter
                         (fun uid -> if reaches sp t uid next then Bitset.set keep uid)
                         b;
                       if not (Bitset.is_empty keep) then cc.(s).(t) <- Some keep)
                 vis.(s)
         done;
         Array.iteri
           (fun s outs ->
             List.iter
               (fun (spec_i, dst) ->
                 let sp = a.a_specs.(spec_i) in
                 Array.iteri
                   (fun t bo ->
                     match bo with
                     | None -> ()
                     | Some b ->
                         Bitset.iter
                           (fun uid ->
                             List.iter
                               (fun tr ->
                                 let eset = u.Pack.etypes.(tr.tr_eidx) in
                                 let csr =
                                   if tr.tr_out then Eset.forward eset
                                   else Eset.reverse eset
                                 in
                                 Csr.iter_neighbors csr uid (fun ~dst:nbr ~eid ->
                                     let eok =
                                       match sp.c_econd.(tr.tr_eidx) with
                                       | Some c ->
                                           Step_cond.eval_edge c ~row:[||]
                                             ~edge:eid
                                       | None -> true
                                     in
                                     if eok then
                                       let vok =
                                         match sp.c_vcond.(tr.tr_other) with
                                         | Some c ->
                                             Step_cond.eval_vertex c ~row:[||]
                                               ~vertex:nbr
                                         | None -> true
                                       in
                                       if
                                         vok
                                         && can_complete dst tr.tr_other nbr
                                       then do_note tr.tr_eidx eid))
                               sp.c_travs.(t))
                           b)
                   vis.(s))
               outs)
           a.a_trans);
  if note <> None then Metrics.add m_noted !noted;
  (* Endpoints: visited cells at accepting states, ascending packed order
     — [Pack.pack] is monotonic in (tidx, id), so per-type ascending
     bitset iteration is [List.sort compare] order. *)
  let exit_pass cell =
    match a.a_exit with None -> true | Some ch -> vcheck_pass ch cell
  in
  let out = Int_vec.create () in
  for t = 0 to nv - 1 do
    let rows =
      List.filter_map
        (fun s -> if a.a_accepting.(s) then vis.(s).(t) else None)
        (List.init a.a_nstates Fun.id)
    in
    let merged =
      match rows with
      | [] -> None
      | [ b ] -> Some b
      | b :: rest ->
          let m = Bitset.copy b in
          List.iter (fun b2 -> Bitset.union_into m b2) rest;
          Some m
    in
    match merged with
    | None -> ()
    | Some b ->
        Bitset.iter
          (fun id ->
            let cell = Pack.pack ~tidx:t ~id in
            if exit_pass cell then Int_vec.push out cell)
          b
  done;
  out
