(** Regular path queries as a product automaton (ROADMAP item 4).

    A path-regex segment [( body )op] is compiled to a small NFA whose
    states are positions inside the group body: state [0] is the entry,
    state [j] means "j atoms of the current traversal matched", and a
    complete body traversal returns to position [1] via the loop
    transition (for [*] and [+]) or chains on (for [{n}]). The
    construction is epsilon-free by design — every transition consumes
    exactly one edge traversal.

    Evaluation runs frontier BFS over the product of the graph with the
    automaton: the visited set is a [(vertex, state)] relation held in
    per-(state, vertex-type) {!Graql_util.Bitset} rows, so each product
    pair is expanded at most once, however many paths lead to it.

    Semantics, checked against {!Reference_exec}: endpoint sets are
    returned sorted by packed cell, [*] includes the start, [+] requires
    at least one complete traversal, [{n}] means exactly [n] complete
    traversals, and the traversed edges reported for subgraph capture
    are exactly {!Reference_exec.result.edges}: the edges lying on
    complete (and, for [{n}], full-length) body traversals.

    The compiler validates the whole body (label/seed/type errors,
    condition compilation) eagerly, before any traversal; the static
    checker rejects all such bodies before execution, so these errors
    are only reachable through the raw engine API. *)

module Ast = Graql_lang.Ast
module Loc = Graql_lang.Loc
module Value = Graql_storage.Value

exception Rpq_error of Loc.t * string

type t
(** A compiled automaton, bound to one universe: traversal tables per
    (transition, source type) and compiled step conditions per
    (transition, edge/vertex type) are resolved eagerly, so {!eval} is
    read-only and safe to run from pool workers. *)

(* ------------------------------------------------------------------ *)
(* Shape introspection (pure, total — shared with EXPLAIN)             *)

type state_info = {
  si_label : string;  (** display row, e.g. ["state 1: --knows--> PersonVtx"] *)
  si_estep : Ast.estep option;  (** arriving traversal; [None] for entry states *)
  si_vstep : Ast.vstep option;  (** arriving landing constraint *)
  si_initial : bool;
  si_accepting : bool;
}

val shape :
  body:(Ast.estep * Ast.vstep) list ->
  op:Ast.rx_op ->
  reversed:bool ->
  state_info array
(** The automaton shape for a group body, without compiling conditions.
    Never raises: a malformed op (negative [{n}]) degrades to the single
    entry state. EXPLAIN uses this to emit one plan row per state; the
    executor's per-state profile samples use the same labels, so
    EXPLAIN ANALYZE lines up est-vs-actual per automaton state. *)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

val compile :
  params:(string -> Value.t option) ->
  u:Pack.universe ->
  ?reversed:bool ->
  ?exit_vstep:Ast.vstep ->
  body:(Ast.estep * Ast.vstep) list ->
  op:Ast.rx_op ->
  loc:Loc.t ->
  unit ->
  t
(** Compile a group body. [reversed] builds the reversal of the language:
    transitions flipped (edge directions inverted), landing constraints
    shifted to the forward source position, initial states = forward
    accepting states (with the forward arrival constraint re-checked on
    seeds), accepting state = forward entry. Reversed automata do not
    report traversed edges — the planner only reverses a regex when the
    query's output cannot observe them. [exit_vstep] is a type/condition
    filter applied to endpoints (the reversed path's landing step).

    Raises {!Rpq_error} on labels or subgraph seeds inside the body,
    unknown vertex types, negative [{n}] counts, and condition
    compilation failures. *)

val nstates : t -> int
val states : t -> state_info array
val is_reversed : t -> bool

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

val eval :
  t ->
  ?pool:Graql_parallel.Domain_pool.t ->
  ?stats:int array ->
  ?note:Graql_util.Bitset.t option array ->
  start:int ->
  unit ->
  Graql_util.Int_vec.t
(** [eval a ~start ()] runs product BFS from packed vertex cell [start]
    and returns the packed endpoint cells, sorted ascending, as the column
    the path executor appends to its binding relation. [note], indexed by
    edge type, gets the id of every edge lying on a complete body
    traversal set in that type's bitset — exactly {!Reference_exec}'s
    traversed-edge set. A missing bitset is allocated over the type's id
    domain on its first edge. The
    [rpq.noted_edges] counter grows by the number of notes (repeats
    included), once per call.
    [stats.(s)] is incremented by the number of product pairs visited at
    state [s]. When [pool] is given, frontiers past a size threshold are
    expanded chunk-parallel; results are unions of per-chunk discoveries
    and therefore identical at any domain count. *)
