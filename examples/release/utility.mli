(** Utility of a pseudonymised release (paper §III-B: "comparing
    statistical qualities like means and variances between the original
    data and the pseudonymised data", plus the standard generalisation
    metrics used by the tools the paper cites). Interval cells contribute
    their midpoint; suppressed and non-numeric cells are skipped. *)

open Mdp_anon

val mean : Dataset.t -> string -> float option
(** [None] when the column has no numeric content. *)

val mean_drift : original:Dataset.t -> release:Dataset.t -> string -> float option
(** Absolute difference of means. *)

val discernibility : Dataset.t -> int
(** Discernibility metric: sum over equivalence classes of |class|²
    (lower is better; n² means one big class). *)

val avg_class_size : Dataset.t -> float
