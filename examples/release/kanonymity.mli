(** k-anonymity (Sweeney 2002, paper ref [5]) of a release, and two
    full-domain anonymisers over {!Mdp_anon.Kanon} schemes.

    A release is k-anonymous when every combination of quasi-identifier
    values it contains is shared by at least [k] records. The greedy
    Datafly heuristic and an exhaustive minimal-lattice search (the
    baseline the heuristic is judged against) choose the levels. *)

open Mdp_anon

val classes_by : Dataset.t -> by:int list -> int list list
(** Partition row indices into classes agreeing on all columns in [by]
    (cells compared by their rendering); classes in first-seen order. *)

val classes : Dataset.t -> int list list
(** Equivalence classes on the quasi columns. *)

val min_class_size : Dataset.t -> int
(** 0 on an empty dataset. *)

val is_k_anonymous : k:int -> Dataset.t -> bool

val datafly :
  k:int -> ?max_suppression:float -> Dataset.t -> Kanon.scheme ->
  (Dataset.t * Kanon.levels * int, string) result
(** Greedy full-domain anonymisation: repeatedly raise the level of the
    quasi attribute with the most distinct values until the rows violating
    k-anonymity could be suppressed within [max_suppression] (fraction of
    rows, default 0); then suppress them. Returns the anonymised dataset
    (violating rows removed), the chosen levels, and the number of
    suppressed rows. [Error] when even full generalisation cannot reach
    [k]. *)

val optimal :
  k:int -> Dataset.t -> Kanon.scheme -> (Dataset.t * Kanon.levels) option
(** Exhaustive lattice search for a level vector with minimal total level
    (ties broken towards earlier scheme attributes staying lower) that is
    k-anonymous with no suppression. Exponential in the number of quasi
    attributes — intended for small schemes and as a quality baseline. *)
