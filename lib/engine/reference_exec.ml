module Ast = Graql_lang.Ast
module Value = Graql_storage.Value
module Vset = Graql_graph.Vset
module Eset = Graql_graph.Eset

exception Unsupported of string

let norm = String.lowercase_ascii

(* Partial match: packed vertex cells of the vertex steps matched so far,
   most recent first. *)
type partial = int list

type label_info = { li_pos : int (* vstep index *); li_each : bool }
type result = { tuples : int array list; edges : int list }

let run_path ~db ~params (p : Ast.path) =
  let u = Db.universe db in
  let labels : (string, label_info) Hashtbl.t = Hashtbl.create 4 in
  let no_slots = { Step_cond.find_slot = (fun _ -> None) } in
  (* Packed cells of the regex-traversed edges. *)
  let noted : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Conditions may reference labels; resolve label refs by evaluating
     against the partial tuple. We reuse Step_cond with a slot lookup that
     maps label names to positions in the tuple-so-far (vstep indices). *)
  let slots_for_step nmatched =
    {
      Step_cond.find_slot =
        (fun name ->
          match Hashtbl.find_opt labels (norm name) with
          | Some li when li.li_pos < nmatched -> Some (li.li_pos, `V)
          | _ -> None);
    }
  in
  let row_of (partial : partial) nmatched =
    (* Step_cond reads label slots by position within the row array. *)
    let arr = Array.make nmatched 0 in
    List.iteri (fun i cell -> arr.(nmatched - 1 - i) <- cell) partial;
    arr
  in
  let vertex_ok (v : Ast.vstep) ~step_idx ~partial ~cell =
    match v.Ast.v_cond with
    | None -> true
    | Some cond ->
        let vset = Pack.vset_of u cell in
        let self_names =
          (match v.Ast.v_kind with Ast.V_named n -> [ n ] | _ -> [])
          @ (match v.Ast.v_label with Some l -> [ Ast.label_name l ] | None -> [])
        in
        let compiled =
          Step_cond.compile_vertex ~params ~universe:u
            ~slots:(slots_for_step step_idx) ~self_names ~vset cond
        in
        Step_cond.eval_vertex compiled
          ~row:(row_of partial step_idx)
          ~vertex:(Pack.id cell)
  in
  let edge_ok (e : Ast.estep) ~step_idx ~partial ~eidx ~eid =
    match e.Ast.e_cond with
    | None -> true
    | Some cond ->
        let eset = u.Pack.etypes.(eidx) in
        let compiled =
          Step_cond.compile_edge ~params ~universe:u
            ~slots:(slots_for_step step_idx)
            ~self_names:
              (match e.Ast.e_kind with Ast.E_named n -> [ n ] | Ast.E_any -> [])
            ~eset cond
        in
        Step_cond.eval_edge compiled ~row:(row_of partial step_idx) ~edge:eid
  in
  let register_label (v : Ast.vstep) idx =
    match v.Ast.v_label with
    | Some l ->
        Hashtbl.replace labels
          (norm (Ast.label_name l))
          { li_pos = idx; li_each = (match l with Ast.Each_label _ -> true | _ -> false) }
    | None -> ()
  in
  (* Head candidates. *)
  let head = p.Ast.head in
  let head_cells =
    match head.Ast.v_kind with
    | Ast.V_any ->
        List.concat
          (List.init (Array.length u.Pack.vtypes) (fun tidx ->
               List.init (Vset.size u.Pack.vtypes.(tidx)) (fun id ->
                   Pack.pack ~tidx ~id)))
    | Ast.V_named n -> (
        match Pack.vtype_index u n with
        | Some tidx ->
            List.init (Vset.size u.Pack.vtypes.(tidx)) (fun id ->
                Pack.pack ~tidx ~id)
        | None -> raise (Unsupported (Printf.sprintf "unknown head %S" n)))
    | Ast.V_seeded _ -> raise (Unsupported "seeded steps")
  in
  register_label head 0;
  let partials =
    List.filter_map
      (fun cell ->
        if vertex_ok head ~step_idx:0 ~partial:[] ~cell then Some [ cell ]
        else None)
      head_cells
  in
  (* Step through segments; the label-value set for set-references is the
     set of values at the label position across current partials (the
     forward-culled set — same definition as the engine's). *)
  let step (partials : partial list) vstep_idx (e : Ast.estep) (v : Ast.vstep)
      : partial list =
    let target_spec =
      match v.Ast.v_kind with
      | Ast.V_any -> `Any
      | Ast.V_seeded _ -> raise (Unsupported "seeded steps")
      | Ast.V_named n -> (
          match Hashtbl.find_opt labels (norm n) with
          | Some li when li.li_pos < vstep_idx ->
              if li.li_each then `Each li.li_pos
              else begin
                let set = Hashtbl.create 32 in
                List.iter
                  (fun partial ->
                    let arr = row_of partial vstep_idx in
                    Hashtbl.replace set arr.(li.li_pos) ())
                  partials;
                `Set (li.li_pos, set)
              end
          | _ -> (
              match Pack.vtype_index u n with
              | Some tidx -> `Type tidx
              | None -> raise (Unsupported (Printf.sprintf "unknown step %S" n))))
    in
    let out = ref [] in
    List.iter
      (fun partial ->
        let cur = List.hd partial in
        let arr = row_of partial vstep_idx in
        Array.iteri
          (fun eidx eset ->
            let name_ok =
              match e.Ast.e_kind with
              | Ast.E_named n -> norm n = norm (Eset.name eset)
              | Ast.E_any -> true
            in
            if name_ok then
              (* Scan every edge of the type: the baseline has no index. *)
              for eid = 0 to Eset.size eset - 1 do
                let src_t = Pack.vtype_index u (Eset.src_type eset) in
                let dst_t = Pack.vtype_index u (Eset.dst_type eset) in
                match (src_t, dst_t) with
                | Some st, Some dt ->
                    let scell = Pack.pack ~tidx:st ~id:(Eset.src eset eid) in
                    let dcell = Pack.pack ~tidx:dt ~id:(Eset.dst eset eid) in
                    let from_cell, to_cell =
                      match e.Ast.e_dir with
                      | Ast.Out -> (scell, dcell)
                      | Ast.In -> (dcell, scell)
                    in
                    if from_cell = cur then begin
                      let type_ok =
                        match target_spec with
                        | `Any -> true
                        | `Type t -> Pack.tidx to_cell = t
                        | `Each pos -> to_cell = arr.(pos)
                        | `Set (pos, set) ->
                            Hashtbl.mem set to_cell
                            && Pack.tidx to_cell = Pack.tidx arr.(pos)
                      in
                      if
                        type_ok
                        && edge_ok e ~step_idx:vstep_idx ~partial ~eidx ~eid
                        && vertex_ok v ~step_idx:vstep_idx ~partial
                             ~cell:to_cell
                      then out := (to_cell :: partial) :: !out
                    end
                | _ -> ()
              done)
          u.Pack.etypes)
      partials;
    register_label v vstep_idx;
    List.rev !out
  in
  (* Naive fixpoint for a regex segment. One complete body traversal of a
     cell set chains full-edge-scan expansions of each atom; [*] closes
     over rounds and keeps the start, [+] runs one round then closes,
     [{n}] runs exactly [n] rounds. Conditions inside the group cannot see
     label slots (same rule as the engines), so they compile with an empty
     slot lookup and evaluate against an empty row.

     Traversed edges: for each cell reaching the segment, an edge is
     traversed iff it lies on a complete body traversal of a walk the
     operator accepts — [*]/[+] any number of rounds, [{n}] exactly [n]
     rounds (a walk that cannot run all [n] is pruned). A traversal that
     dies mid-body notes nothing. Every clause is a union over the cells
     reaching the segment, so they are evaluated as one set. *)
  let regex (partials : partial list) (body : (Ast.estep * Ast.vstep) list)
      (op : Ast.rx_op) : partial list =
    List.iter
      (fun ((e : Ast.estep), (v : Ast.vstep)) ->
        if e.Ast.e_label <> None || v.Ast.v_label <> None then
          raise (Unsupported "labels inside regexes");
        match v.Ast.v_kind with
        | Ast.V_seeded _ -> raise (Unsupported "seeded steps")
        | _ -> ())
      body;
    (* Every edge of the atom leaving [cells] that passes its conditions,
       as (from cell, packed edge, to cell). *)
    let atom_edges ((e : Ast.estep), (v : Ast.vstep))
        (cells : (int, unit) Hashtbl.t) =
      let target =
        match v.Ast.v_kind with
        | Ast.V_any -> None
        | Ast.V_named n -> (
            match Pack.vtype_index u n with
            | Some t -> Some t
            | None -> raise (Unsupported (Printf.sprintf "unknown step %S" n)))
        | Ast.V_seeded _ -> assert false
      in
      (* Per-landing-type vertex condition cache: [None] entry = compile
         failure on an unconstrained [ ] landing, which rejects that type
         (the engines behave the same way). *)
      let vcache : (int, Step_cond.t option) Hashtbl.t = Hashtbl.create 4 in
      let vertex_ok cell =
        match v.Ast.v_cond with
        | None -> true
        | Some cond -> (
            let tidx = Pack.tidx cell in
            let compiled =
              match Hashtbl.find_opt vcache tidx with
              | Some c -> c
              | None ->
                  let self_names =
                    match v.Ast.v_kind with Ast.V_named n -> [ n ] | _ -> []
                  in
                  let c =
                    try
                      Some
                        (Step_cond.compile_vertex ~params ~universe:u
                           ~slots:no_slots ~self_names
                           ~vset:u.Pack.vtypes.(tidx) cond)
                    with Compile_expr.Compile_error _ when target = None ->
                      None
                  in
                  Hashtbl.replace vcache tidx c;
                  c
            in
            match compiled with
            | None -> false
            | Some c ->
                Step_cond.eval_vertex c ~row:[||] ~vertex:(Pack.id cell))
      in
      let out = ref [] in
      Array.iteri
        (fun eidx eset ->
          let name_ok =
            match e.Ast.e_kind with
            | Ast.E_named n -> norm n = norm (Eset.name eset)
            | Ast.E_any -> true
          in
          if name_ok then
            match
              ( Pack.vtype_index u (Eset.src_type eset),
                Pack.vtype_index u (Eset.dst_type eset) )
            with
            | Some st, Some dt ->
                let ec =
                  match e.Ast.e_cond with
                  | None -> None
                  | Some cond ->
                      Some
                        (Step_cond.compile_edge ~params ~universe:u
                           ~slots:no_slots
                           ~self_names:
                             (match e.Ast.e_kind with
                             | Ast.E_named n -> [ n ]
                             | Ast.E_any -> [])
                           ~eset cond)
                in
                for eid = 0 to Eset.size eset - 1 do
                  let scell = Pack.pack ~tidx:st ~id:(Eset.src eset eid) in
                  let dcell = Pack.pack ~tidx:dt ~id:(Eset.dst eset eid) in
                  let from_cell, to_cell =
                    match e.Ast.e_dir with
                    | Ast.Out -> (scell, dcell)
                    | Ast.In -> (dcell, scell)
                  in
                  if
                    Hashtbl.mem cells from_cell
                    && (match target with
                       | None -> true
                       | Some t -> Pack.tidx to_cell = t)
                    && (match ec with
                       | None -> true
                       | Some c -> Step_cond.eval_edge c ~row:[||] ~edge:eid)
                    && vertex_ok to_cell
                  then
                    out :=
                      (from_cell, Pack.pack ~tidx:eidx ~id:eid, to_cell) :: !out
                done
            | _ -> ())
        u.Pack.etypes;
      !out
    in
    let set_of cells =
      let h = Hashtbl.create 16 in
      List.iter (fun c -> Hashtbl.replace h c ()) cells;
      h
    in
    (* One complete body traversal of [cells]: the edges each atom takes,
       last atom first, and the cells the traversal ends on. *)
    let traverse cells =
      List.fold_left
        (fun (layers, cur) a ->
          let es = atom_edges a cur in
          (es :: layers, set_of (List.map (fun (_, _, t) -> t) es)))
        ([], cells) body
    in
    let round cells = snd (traverse cells) in
    (* Note the edges of the traversals from [cells] that complete the
       body on a cell satisfying [lands]; returns the cells they start
       from. *)
    let complete cells ~lands =
      fst
        (List.fold_left
           (fun (_, lands) layer ->
             let next = Hashtbl.create 16 in
             List.iter
               (fun (f, edge, t) ->
                 if lands t then begin
                   Hashtbl.replace noted edge ();
                   Hashtbl.replace next f ()
                 end)
               layer;
             (next, Hashtbl.mem next))
           (Hashtbl.create 1, lands)
           (fst (traverse cells)))
    in
    let singleton c = set_of [ c ] in
    let closure_into reached frontier =
      (* BFS over the "one complete traversal" relation. *)
      let front = ref frontier in
      while Hashtbl.length !front > 0 do
        let next = round !front in
        let fresh = Hashtbl.create 16 in
        Hashtbl.iter
          (fun c () ->
            if not (Hashtbl.mem reached c) then begin
              Hashtbl.replace reached c ();
              Hashtbl.replace fresh c ()
            end)
          next;
        front := fresh
      done
    in
    let levels n starts =
      let lv = Array.make (n + 1) starts in
      for k = 1 to n do
        lv.(k) <- round lv.(k - 1)
      done;
      lv
    in
    let eval_from start =
      match op with
      | Ast.Rx_count n when n < 0 ->
          raise (Unsupported "negative repetition count")
      | Ast.Rx_count n -> (levels n (singleton start)).(n)
      | Ast.Rx_star ->
          let reached = singleton start in
          closure_into reached (singleton start);
          reached
      | Ast.Rx_plus ->
          let first = round (singleton start) in
          let reached = Hashtbl.copy first in
          closure_into reached first;
          reached
    in
    let starts = set_of (List.map List.hd partials) in
    (match op with
    | Ast.Rx_star | Ast.Rx_plus ->
        let reached = Hashtbl.copy starts in
        closure_into reached starts;
        ignore (complete reached ~lands:(fun _ -> true))
    | Ast.Rx_count n when n < 0 -> ()
    | Ast.Rx_count n ->
        let lv = levels n starts in
        let kept = ref lv.(n) in
        for k = n - 1 downto 0 do
          kept := complete lv.(k) ~lands:(Hashtbl.mem !kept)
        done);
    let memo : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    let out = ref [] in
    List.iter
      (fun partial ->
        let cur = List.hd partial in
        let ends =
          match Hashtbl.find_opt memo cur with
          | Some e -> e
          | None ->
              let set = eval_from cur in
              let e =
                Hashtbl.fold (fun c () acc -> c :: acc) set []
                |> List.sort compare
              in
              Hashtbl.replace memo cur e;
              e
        in
        List.iter (fun c -> out := (c :: partial) :: !out) ends)
      partials;
    List.rev !out
  in
  let final =
    List.fold_left
      (fun (partials, idx) seg ->
        match seg with
        | Ast.Seg_step (e, v) -> (step partials idx e v, idx + 1)
        | Ast.Seg_regex (body, op, _) -> (regex partials body op, idx + 1))
      (partials, 1) p.Ast.segments
    |> fst
  in
  {
    tuples = List.map (fun partial -> Array.of_list (List.rev partial)) final;
    edges = List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) noted []);
  }
