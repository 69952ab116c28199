(** Columnar anonymisation engine: the [mdpriv anon] pipeline.

    Compiles a {!Dataset.t} once into typed column storage — numeric
    content as flat float arrays, cells as lazily built dictionary
    codes — and runs Mondrian anonymisation and the §III-B value-risk
    sweep over that representation. It is the compiled twin of
    {!Mondrian} and {!Value_risk}, following the same naive-vs-compiled
    split as [Mdp_core.Generate] and [Mdp_core.Risk_plan]: the naive
    modules stay the readable oracle, this module produces identical
    results at scale.

    Guarantees (checked by the [test_anon] parity suites):
    - the release's cells, and every error and its message, equal
      {!Mondrian.anonymise}'s;
    - value-risk reports equal {!Value_risk.sweep}'s, fraction for
      fraction.

    Plans cache dictionaries as analyses need them, so one plan is not
    safe to analyse from several domains at once. *)

type t
(** A dataset compiled to columns. Immutable view of the source
    dataset: compiling never copies or alters cell values. *)

val compile : Dataset.t -> t

val source : t -> Dataset.t
(** The dataset the plan was compiled from (physical identity). *)

val mondrian_release : k:int -> t -> (t, string) result
(** {!Mondrian.anonymise}, returning the release already compiled (the
    released dataset is its {!source}). Recursion steps permute a
    row-index array in place (stable partition around an O(range)
    quickselect median) instead of rebuilding row lists. The release's
    quasi-column dictionaries are seeded from the partition structure,
    one rendering per (leaf, column) instead of one per row, with the
    codes a fresh {!compile} would assign. [Error] for [k < 1], fewer
    rows than [k], or a non-numeric quasi cell. *)

val value_risk_sweep : t -> Value_risk.policy -> Value_risk.report list
(** {!Value_risk.sweep} over the compiled plan: classes by hashed
    coding, per-record frequencies by binary search over each class's
    sorted sensitive values (numeric) or dictionary-code counts
    (categorical), applying exactly the naive closeness predicate.
    @raise Not_found on an unknown attribute name. *)
