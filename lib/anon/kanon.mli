(** Full-domain generalisation (Sweeney 2002, paper ref [5]): one
    hierarchy per quasi attribute and one chosen level each, the
    generalisation that turns Table I's raw records into the paper's
    2-anonymised release. *)

type scheme = (string * Hierarchy.t) list
(** One generalisation hierarchy per quasi attribute. *)

type levels = (string * int) list
(** A chosen generalisation level per quasi attribute — one node of the
    full-domain lattice. *)

val apply : Dataset.t -> scheme -> levels -> Dataset.t
(** Generalise each listed column at its level. Attributes of the scheme
    missing from [levels] stay at level 0. *)
