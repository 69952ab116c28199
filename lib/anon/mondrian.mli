(** Mondrian multidimensional k-anonymisation (LeFevre et al.) — the
    baseline partitioning anonymiser against the full-domain methods in
    {!Kanon}. Numeric quasi-identifiers only: rows are recursively split
    at the median of the widest-normalised-range attribute while both
    halves keep at least [k] rows; each final partition's quasi cells are
    replaced by the partition's covering interval (or the exact value
    when the partition is constant in that attribute). *)

val anonymise : k:int -> Dataset.t -> (Dataset.t, string) result
(** [Error] when [k < 1], the dataset has fewer than [k] rows, or some
    quasi column is non-numeric. Row order is preserved. *)

val partitions : k:int -> Dataset.t -> (int list list, string) result
(** The row-index partitions the anonymisation uses. *)
