(** Cell values of (possibly generalised) datasets.

    Raw microdata uses [Int]/[Float]/[Str]; generalisation replaces them
    with [Interval] (numeric range, inclusive lower bound, exclusive upper
    bound), and full suppression with [Suppressed]. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Interval of float * float  (** [lo, hi) *)
  | Suppressed

val interval : float -> float -> t
(** @raise Invalid_argument unless [lo < hi]. *)

val numeric : t -> float option
(** The numeric content of [Int]/[Float]; [None] otherwise. *)

val midpoint : t -> float option
(** Numeric content, or the midpoint of an [Interval]. *)

val to_string : t -> string
