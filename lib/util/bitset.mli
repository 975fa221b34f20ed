(** Fixed-capacity mutable bit sets over [0, length). Used for null bitmaps,
    row selections and per-step vertex marks. *)

type t

val create : int -> t
(** [create n] is an all-zeros bit set with domain [0, n). *)

val create_full : int -> t
(** [create_full n] is an all-ones bit set with domain [0, n). *)

val length : t -> int
(** Domain size, as given at creation. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

val mem_padded : t -> int -> bool
(** [mem], except that an index at or beyond the domain reads as not a
    member: the set behaves as if padded with zeros to any larger
    domain. For sets over an id domain that only grows. *)

val assign : t -> int -> bool -> unit

val cardinal : t -> int
(** Number of set bits; O(words). *)

val is_empty : t -> bool

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst <- dst | src]. Domains must match. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] sets [dst <- dst & src]. Domains must match. *)

val diff_into : t -> t -> unit
(** [diff_into dst src] sets [dst <- dst & ~src]. Domains must match. *)

val copy : t -> t

val padded : t -> int -> t
(** [padded t n] is a copy of [t] over the domain [0, n), [n >= length
    t]; the indices it adds are not members. *)

val fill : t -> bool -> unit

val iter : (int -> unit) -> t -> unit
(** Iterate set bits in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
val equal : t -> t -> bool

val choose : t -> int option
(** Smallest set bit, if any. *)
