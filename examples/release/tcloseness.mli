(** t-closeness (Li et al.): a release is t-close when the distribution of
    the sensitive attribute within every equivalence class is within
    distance [t] of its distribution in the whole table. Complements
    {!Ldiv}: l-diversity bounds *how many* sensitive values a class shows,
    t-closeness bounds *how different* the class's value distribution may
    look — the property that finally removes Table-I-style skew. *)

open Mdp_anon

val numeric_emd : Dataset.t -> sensitive:string -> float option
(** Worst (largest) earth-mover's distance over classes, using the
    ordered-distance ground metric on the sorted distinct sensitive
    values (the standard numeric t-closeness instantiation). [None] when
    the column has no numeric content or the dataset is empty. *)

val categorical_distance : Dataset.t -> sensitive:string -> float option
(** Worst total-variation distance over classes (the categorical
    instantiation). Works for any value type via printed equality. *)

val is_t_close : t:float -> Dataset.t -> sensitive:string -> bool
(** Uses {!numeric_emd} when the column is numeric, otherwise
    {!categorical_distance}; vacuously true on empty data. *)
