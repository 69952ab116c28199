(** Exact non-negative fractions.

    The paper's Table I reports value risks as unreduced fractions
    (e.g. 2/4, not 1/2), because numerator and denominator carry meaning:
    occurrences within the equivalence set / size of the set. We therefore
    keep both and never reduce implicitly. *)

type t = { num : int; den : int }

val make : int -> int -> t
(** @raise Invalid_argument if the denominator is not positive or the
    numerator is negative. *)

val to_float : t -> float
val ge : t -> float -> bool
(** [ge f x] is [to_float f >= x], exact in the common cases. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
