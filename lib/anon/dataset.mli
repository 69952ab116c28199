(** In-memory microdata tables.

    A dataset couples an attribute list with rows of {!Value.t} cells.
    Row and column order are significant (row index = record identity,
    so an anonymised dataset lines up with its original). *)

type t

val make : attrs:Attribute.t list -> rows:Value.t list list -> t
(** @raise Invalid_argument on duplicate attribute names or a row whose
    width differs from the attribute count. *)

val init : attrs:Attribute.t list -> nrows:int -> f:(row:int -> col:int -> Value.t) -> t
(** Array-direct construction without intermediate row lists — the path
    large synthetic datasets take. [f] is called in row-major order
    (row 0 col 0, row 0 col 1, ...), so a seeded generator may draw from
    its PRNG inside [f] and stay deterministic.
    @raise Invalid_argument on duplicate attribute names or a negative
    row count. *)

val attrs : t -> Attribute.t list
val nrows : t -> int
val ncols : t -> int
val get : t -> row:int -> col:int -> Value.t
val row : t -> int -> Value.t list
val rows : t -> Value.t list list
val col_index : t -> string -> int
(** @raise Not_found on an unknown attribute name. *)

val column : t -> string -> Value.t list
val quasi_indices : t -> int list
val map_column : t -> string -> (Value.t -> Value.t) -> t
val drop_identifiers : t -> t
(** Remove [Identifier] columns (the mandatory first step of any
    release). *)

val pp : Format.formatter -> t -> unit
(** Text-table rendering. *)
