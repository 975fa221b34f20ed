(** A map from keys to ints that never changes once built. Extending it
    returns a new index and leaves the old one as it was, so a view built
    over a prefix of its table can be extended without copying its whole
    index, and readers of the old view see no change.

    The index is a stack of hash tables, newest first. Pushing a level
    merges it with every older level that is no larger (a binary
    counter): a lookup probes O(log n) tables, and over any sequence of
    pushes each binding is copied O(log n) times. *)

type 'k t

val empty : 'k t
val length : 'k t -> int
(** Number of bindings. *)

val find : 'k t -> 'k -> int option

val push : 'k t -> ('k, int) Hashtbl.t -> 'k t
(** [push t level] holds the bindings of [t] and of [level], whose keys
    must not be bound in [t]. [level] is taken over: do not mutate it
    afterwards. *)
