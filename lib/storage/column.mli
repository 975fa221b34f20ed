(** Typed columnar storage with null bitmaps.

    Physical layout: Bool/Int/Date live in an unboxed int array; Float in a
    float array; Varchar values are dictionary-encoded through a per-column
    intern pool, so equality joins and group-bys on strings compare ints. *)

type t

type stats = {
  st_rows : int;  (** total rows, nulls included *)
  st_nulls : int;
  st_distinct : float;
      (** estimate: dictionary size for Varchar, a linear-counting sketch
          otherwise; capped at the non-null row count *)
  st_min : int option;  (** raw payload min — Int/Date columns only *)
  st_max : int option;
}

val create : ?expected:int -> Dtype.t -> t
(** [expected] is a row-count capacity hint: payload arrays, the null
    bitmap and (bounded) the Varchar dictionary are pre-sized so ingest
    avoids doubling churn. *)

val reserve : t -> int -> unit
(** Grow capacity (not length) to hold [n] rows. *)

val dtype : t -> Dtype.t
val length : t -> int

val stats : t -> stats option
(** Incrementally maintained ingest statistics, or [None] for gathered
    ({!create_sized}) columns whose writes bypass the tracked append path
    (until {!track_stats}). Statistics survive checkpoint/recovery because
    recovery replays the ingest path. *)

val track_stats : t -> unit
(** Give a gathered column the statistics {!append} would have tracked
    for the same values, from one scan of its payload; later appends keep
    them current. A dictionary-shared Varchar column counts the distinct
    ids it holds rather than the shared dictionary's size. No-op on a
    column that already tracks statistics. *)

val append : t -> Value.t -> unit
(** Raises [Failure] on a type mismatch (the ingest layer surfaces this
    with row context). *)

val get : t -> int -> Value.t

val is_null : t -> int -> bool

val get_int : t -> int -> int
(** Raw payload for Bool (0/1) / Int / Date / Varchar (dictionary id);
    undefined if null, [Invalid_argument] for Float columns. Hot-path
    accessor for joins and graph building. *)

val get_float : t -> int -> float
(** Raw float payload; accepts Int columns too (coerced). *)

val int_data : t -> int array
(** The backing int payload array (Bool/Int/Date/Varchar ids). Only
    indices [0, length) are meaningful; slots under a null bit hold 0 for
    appended columns but are unspecified in general. The batch kernels
    loop over this directly instead of calling {!get_int} per row.
    [Invalid_argument] for Float columns. *)

val float_data : t -> float array
(** The backing float payload array; [Invalid_argument] for int-payload
    columns. Same indexing contract as {!int_data}. *)

val null_mask : t -> Bytes.t
(** The null bitmap (bit [i land 7] of byte [i lsr 3]); consult
    {!has_nulls} first — an all-zero prefix is not guaranteed to cover
    [length] when no null was ever set. *)

val has_nulls : t -> bool
(** Whether any null bit is set (cheap flag, no scan). *)

val same_dict : t -> t -> bool
(** Whether two Varchar columns share one intern pool, making their
    dictionary ids directly comparable. *)

val intern_id : t -> string -> int option
(** For Varchar columns: dictionary id of [s] if present. Lets predicates
    compare against a constant with one lookup, then int equality. *)

val dict_lookup : t -> int -> string
(** Inverse of the dictionary encoding for Varchar columns. *)

val append_null : t -> unit

val dict_size : t -> int
(** Number of distinct strings interned by a Varchar column. Lets joins
    pre-compute whole-dictionary id translations instead of memoizing per
    probe row. *)

val create_sized : ?share_dict_of:t -> Dtype.t -> int -> t
(** [create_sized dtype n] is a column of length [n] whose slots are
    non-null zeros until overwritten via {!gather_into}. Varchar columns
    must pass [share_dict_of] (the column ids will be copied from) so
    dictionary ids stay meaningful. *)

val gather_into : src:t -> rows:int array -> dst:t -> lo:int -> hi:int -> unit
(** [gather_into ~src ~rows ~dst ~lo ~hi] sets [dst.(i) <- src.(rows.(i))]
    for [i] in [lo, hi), nulls included. [dst] must be a {!create_sized}
    column of the same dtype (sharing the dictionary when Varchar).
    Distinct ranges may be filled concurrently from different domains as
    long as range boundaries are multiples of 8. *)

val approx_bytes : t -> int
(** Rough in-memory footprint: unboxed payload + null bitmap + (for
    varchar) the dictionary strings. Used for cluster capacity planning. *)
