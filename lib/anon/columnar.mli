(** Columnar anonymisation engine.

    Compiles a {!Dataset.t} once into typed column storage — numeric
    quasi content as flat float arrays, categorical/sensitive content
    as dictionary-encoded integer codes — and re-implements the
    anonymisation and risk analyses over that representation. This is
    the compiled twin of the naive row-at-a-time modules ({!Mondrian},
    {!Kanon}, {!Ldiv}, {!Tcloseness}, {!Reident}, {!Value_risk}),
    following the same naive-vs-compiled split as [Mdp_core.Generate]
    and [Mdp_core.Risk_plan]: the naive modules stay the readable
    oracle, this module produces bit-identical results at
    million-row scale.

    Guarantees (checked by the [test_anon] parity suites):
    - Mondrian partitions, partition order, row order within a
      partition, and released datasets equal the naive engine's for
      every [jobs] value.
    - Equivalence classes come out in the naive first-appearance
      order; k/l/t checks and re-identification/value-risk scores are
      float-for-float identical (the same IEEE operations are applied
      in the same order).

    A compiled plan is cheap: one pass to extract numeric content;
    per-column dictionaries are built lazily the first time a
    class-based analysis needs them. Plans memoise the quasi
    equivalence classes, so analyses are not safe to call from
    multiple domains concurrently ({!mondrian_partitions} and
    {!mondrian_anonymise} parallelise internally instead). *)

type t
(** A dataset compiled to columns. Immutable view of the source
    dataset: compiling never copies or alters cell values. *)

val compile : Dataset.t -> t

val source : t -> Dataset.t
(** The dataset the plan was compiled from (physical identity). *)

val nrows : t -> int

val guard : t -> Dataset.t -> unit
(** [guard t ds] checks that [t] was compiled from exactly [ds]
    (physical equality, mirroring [Risk_plan]'s stale-plan guard).
    @raise Invalid_argument if the plan is stale or mismatched. *)

val col_index : t -> string -> int
(** @raise Not_found on an unknown attribute name. *)

(** {1 Equivalence classes and k-anonymity} *)

val equivalence_classes : t -> by:int list -> int list list
(** Same classes, same class order, same row order as
    {!Dataset.equivalence_classes}, via one hashed coding pass per
    column instead of string-key grouping. *)

val classes : t -> int list list
(** Quasi-identifier classes ({!Kanon.classes}); memoised. *)

val min_class_size : t -> int
val is_k_anonymous : k:int -> t -> bool
val violating_rows : k:int -> t -> int list
val distinct_count : t -> int -> int

(** {1 Mondrian} *)

val mondrian_partitions :
  ?jobs:int -> ?par_threshold:int -> k:int -> t -> (int list list, string) result
(** {!Mondrian.partitions} over index ranges: recursion steps permute
    a row-index array in place (stable partition around an O(range)
    quickselect median) instead of rebuilding row lists, and with
    [jobs > 1] independent subranges are fanned out over a domain
    pool. Ranges below [par_threshold] rows (default 16384) are
    always explored sequentially. The result — including errors and
    their messages — is identical for every [jobs]. *)

val mondrian_anonymise :
  ?jobs:int -> ?par_threshold:int -> k:int -> t -> (Dataset.t, string) result
(** {!Mondrian.anonymise}, generalising quasi cells of each partition
    to their range interval. *)

val mondrian_release :
  ?jobs:int -> ?par_threshold:int -> k:int -> t -> (t, string) result
(** [mondrian_anonymise] that returns the release already compiled
    (its source dataset is what [mondrian_anonymise] would return,
    reachable via {!source}), with the per-quasi-column dictionaries
    seeded from the partition structure — one rendering per (leaf,
    column) instead of a pass over every row. Code assignment is
    identical to compiling the release from scratch, so every class
    analysis and {!evaluate_gate} behave exactly as they would on
    [compile (mondrian_anonymise ...)], only cheaper. This is the
    serving-path entry point: anonymise, then gate or analyse the
    same compiled release without recompiling it. *)

(** {1 l-diversity} *)

val ldiv_distinct : t -> sensitive:string -> int
val is_distinct_diverse : l:int -> t -> sensitive:string -> bool
val ldiv_entropy : t -> sensitive:string -> float
val is_entropy_diverse : l:float -> t -> sensitive:string -> bool

(** {1 t-closeness} *)

val tclose_numeric_emd : t -> sensitive:string -> float option
(** {!Tcloseness.numeric_emd}: per-class ordered EMD against the
    global distribution, counting over value ranks in the sorted
    support instead of assoc-list distributions. *)

val tclose_categorical : t -> sensitive:string -> float option
val is_t_close : t:float -> t -> sensitive:string -> bool

(** {1 Re-identification risk} *)

val reident_prosecutor : t -> float
val reident_marketer : t -> float

val reident_journalist : release:t -> population:t -> float option
(** {!Reident.journalist}: each class representative's generalised
    quasi cells are precompiled to per-column tests (range check on
    the population's float column, code-set membership on its
    dictionary codes) so the population scan does no [Value.covers]
    dispatch. *)

(** {1 §III-B value risk} *)

val value_risk_assess :
  t -> fields_read:string list -> Value_risk.policy -> Value_risk.report
(** {!Value_risk.assess}: classes by hashed coding; per-record
    frequencies by binary search over the class's sorted sensitive
    values (numeric) or dictionary-code counts (categorical), applying
    exactly the naive per-pair closeness predicate. *)

val value_risk_sweep : t -> Value_risk.policy -> Value_risk.report list
(** {!Value_risk.sweep} over the compiled plan. *)

(** {1 Release acceptance gate} *)

val evaluate_gate :
  original:Dataset.t -> release:t -> Release_gate.criteria ->
  Release_gate.verdict
(** {!Release_gate.evaluate} with every class-based criterion
    (k-anonymity, l-diversity, t-closeness, value risk) computed by
    this engine: identical verdict — same checks, same failure strings
    in the same order — at hashed-class cost. [original] is only
    consulted for utility drift, exactly as in the naive gate. *)
