(** Error-accumulating validation.

    Model validation wants to report every problem at once rather than
    failing on the first; a [ctx] collects error messages and [result]
    returns either the value or all collected errors. *)

type ctx

val create : unit -> ctx
val errorf : ctx -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Record a formatted error message. *)

val require : ctx -> bool -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [require ctx cond fmt ...] records the message when [cond] is false.
    The format arguments are always consumed. *)

val errors : ctx -> string list
(** Messages in the order recorded. *)

val result : ctx -> 'a -> ('a, string list) Stdlib.result
(** [Ok v] when no errors were recorded, otherwise [Error messages]. *)
