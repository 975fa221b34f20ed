(** String interning pool: maps strings to dense small ints and back.
    Vertex keys and dictionary-encoded string columns use these ids so hot
    joins and traversals compare ints, never strings. *)

type t

val create : ?expected:int -> unit -> t
(** [expected] is a capacity hint (distinct strings); ingest passes the
    row count so large Varchar columns do not rehash-and-double their way
    up from 16 slots. *)

val reserve : t -> int -> unit
(** Ensure capacity for [n] distinct strings: grows the reverse array and
    rebuilds the hash table once, at [n] or twice the old capacity,
    whichever is larger. No-op if already big enough. *)

val intern : t -> string -> int
(** Stable id for the string, assigned densely from 0 in first-seen order. *)

val find_opt : t -> string -> int option
(** Id if already interned, without adding. *)

val lookup : t -> int -> string
(** Inverse of {!intern}. Raises [Invalid_argument] on unknown id. *)

val size : t -> int
