(** Columnar anonymisation engine: Mondrian anonymisation and the
    §III-B value risk behind [mdpriv anon] and
    [Mdp_core.Pseudonym_risk].

    Compiles a {!Dataset.t} once into typed column storage — numeric
    content as flat float arrays, cells as lazily built dictionary
    codes — and runs Mondrian anonymisation and the §III-B value-risk
    assessment over that representation. It is the one engine for
    both. The row-at-a-time naive Mondrian and value-risk engines it
    replaced live on as test oracles, and the [test_anon] parity suites
    check that:
    - the release's cells, and every error and its message, equal the
      naive Mondrian's;
    - value-risk reports equal the naive engine's, fraction for
      fraction, for every read set including the empty one.

    Plans cache dictionaries as analyses need them, so one plan is not
    safe to analyse from several domains at once. *)

type t
(** A dataset compiled to columns. Immutable view of the source
    dataset: compiling never copies or alters cell values. *)

val compile : Dataset.t -> t

val source : t -> Dataset.t
(** The dataset the plan was compiled from (physical identity). *)

val mondrian_release : k:int -> t -> (t, string) result
(** Mondrian multidimensional k-anonymisation (LeFevre et al.),
    returning the release already compiled (the released dataset is its
    {!source}; row order is preserved). Rows are recursively split at
    the median of the widest-range quasi attribute while both halves
    keep at least [k] rows; each final partition's quasi cells become
    the partition's covering interval, or the exact value when the
    partition is constant in that attribute. Recursion steps permute a
    row-index array in place (stable partition around an O(range)
    quickselect median) instead of rebuilding row lists. The release's
    quasi-column dictionaries are seeded from the partition structure,
    one rendering per (leaf, column) instead of one per row, with the
    codes a fresh {!compile} would assign. [Error] for [k < 1], fewer
    rows than [k], or a non-numeric quasi cell. *)

val value_risk_assess :
  t -> fields_read:string list -> Value_risk.policy -> Value_risk.report
(** The {!Value_risk} report of an adversary who has read [fields_read]
    ([[]] puts the whole release in one set): classes by hashed coding,
    per-record frequencies by binary search over each class's sorted
    sensitive values (numeric) or dictionary-code counts (categorical).
    Two sensitive values are close (the paper's Table I "close enough")
    when both are numeric and [|x - y| <= closeness], or when neither is
    and they are equal; [Suppressed] is close to nothing, not even
    itself.
    @raise Not_found on an unknown attribute name. *)

val value_risk_sweep : t -> Value_risk.policy -> Value_risk.report list
(** One {!value_risk_assess} report per {!Value_risk.read_sets} entry, in
    that order. *)
