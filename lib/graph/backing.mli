(** Arrays shared along a chain of view versions. A version holds the
    arrays and its own size, and reads nothing at or past that size. The
    arrays' owner records how far they are written: the version whose
    size equals it (the tip) appends in place, into room the arrays have
    or into a copy with twice the room; any other version copies. Old
    versions keep reading the same values below their size. *)

type owner

val owner : int -> owner
(** The owner of fresh arrays written up to the given length. *)

type growth

val plan : owner -> size:int -> cap:int -> added:int -> growth
(** How a version of [size] elements, over arrays of length [cap], takes
    [added] more. Every array in the group must have length [cap]. *)

val put : growth -> 'a array -> fill:'a -> 'a array -> 'a array
(** [put g a ~fill extra] holds [a]'s first [size] elements followed by
    [extra] (of length [added]): [a] itself when the growth is in place,
    [extra] itself when [size] is 0 (it is fresh and handed over), and a
    copy padded with [fill] otherwise. *)

val commit : growth -> owner
(** The owner of the arrays [put] gave, written up to [size + added].
    Call it after every array of the group is put. *)
