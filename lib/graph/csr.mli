(** Compressed-sparse-row adjacency: the paper's "edge index"
    (Sec. III-B). One CSR is built per edge type per direction; the
    planner exploits having both. *)

type t

val build :
  ?pool:Graql_parallel.Domain_pool.t ->
  nvertices:int ->
  src:int array ->
  dst:int array ->
  unit ->
  t
(** [build ~nvertices ~src ~dst ()] indexes edge [i] as [src.(i) -> dst.(i)];
    neighbors of a vertex are grouped; edge ids are retained. With a pool
    (and enough edges) the counting sort runs chunk-parallel and remains
    stable: the output is byte-identical to the sequential build. *)

val append :
  ?pool:Graql_parallel.Domain_pool.t ->
  t ->
  nvertices:int ->
  src:int array ->
  dst:int array ->
  nedges:int ->
  t
(** [append t ~nvertices ~src ~dst ~nedges] indexes edges [0, nedges) of
    [src]/[dst] (which may be longer) over [nvertices] vertices, given
    that [t] indexes the first [nedges t] of them over no more vertices:
    every reader sees what {!build} over those edges gives. The new
    edges join a delta run beside [t]'s base, in time linear in the
    delta; once the delta passes an eighth of the base, all [nedges]
    are built into a new base (on the pool, as {!build}). [t] is left as
    it was. *)

val nvertices : t -> int
val nedges : t -> int
val degree : t -> int -> int

val iter_neighbors : t -> int -> (dst:int -> eid:int -> unit) -> unit
(** Visit all out-entries of a vertex (in edge-id order). *)

val fold_neighbors : t -> int -> ('a -> dst:int -> eid:int -> 'a) -> 'a -> 'a

val neighbors : t -> int -> (int * int) array
(** [(dst, eid)] pairs; fresh array. *)

val max_degree : t -> int
val avg_degree : t -> float
