(** Static query analysis (Sec. III-A): correctness checks computable from
    catalog metadata alone — no data access.

    Checks implemented, mirroring the paper's list:
    - attribute/constant comparisons of incompatible types (e.g. a date
      against a float);
    - entity-kind misuse (a vertex type where a table is required, and
      vice versa);
    - path well-formedness: edge types must connect the adjacent vertex
      types in the traversal direction; conditions are rejected on variant
      ([ ]) steps; labels must be defined before use and keep their type;
    - limited feasibility: empty entity types and variant steps with no
      connecting edge type produce "result will be empty" warnings when
      sizes are known. *)

val check_script :
  ?params:(string * Graql_lang.Ast.lit) list ->
  Meta.t ->
  Graql_lang.Ast.script ->
  Diag.t list
(** Checks statements in order, registering each statement's definitions
    so later statements see them (the paper's scripts are DDL-then-query).
    The definitions go into a copy: [meta] itself is left as it was.
    Diagnostics come back in source order. *)

val check_stmt :
  ?params:(string * Graql_lang.Ast.lit) list ->
  Meta.t ->
  Graql_lang.Ast.stmt ->
  Diag.t list
