(** Bidirectional string <-> dense-integer interning.

    Used to index actors and fields so privacy-state variables can live in
    bitsets. Identifiers are assigned in insertion order starting at 0. *)

type t

val create : unit -> t
val intern : t -> string -> int
(** Returns the existing id, or assigns the next one. *)

val find : t -> string -> int option
val find_exn : t -> string -> int
(** @raise Not_found if the string was never interned. *)

val name : t -> int -> string
(** @raise Invalid_argument on an unknown id. *)

val size : t -> int
val of_list : string list -> t
