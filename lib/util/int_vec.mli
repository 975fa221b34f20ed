(** Growable arrays of unboxed ints. The workhorse buffer for row ids,
    vertex ids and CSR construction. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit
val clear : t -> unit
(** Reset length to 0, keeping capacity. *)

val to_array : t -> int array
(** Fresh array of exactly [length t] elements. *)

val of_array : int array -> t
val iter : (int -> unit) -> t -> unit
val iteri : (int -> int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val append : t -> t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)

val blit_into : t -> int array -> int -> unit
(** [blit_into src dst pos] copies [src]'s contents into [dst] starting at
    [pos]. Used to concatenate per-task accumulators into one array. *)

val unsafe_get : t -> int -> int
(** No bounds check; caller guarantees [0 <= i < length t]. *)

val gather : t -> t -> t
(** [gather src idx] is the vector of [src.(idx.(i))] for every position
    [i] of [idx]. Raises [Invalid_argument] on an index outside [src]. *)

val sort_unique : t -> t
(** Fresh vector with sorted, deduplicated contents. *)
