(** Interactive what-if sweeps: the batched form of the §IV-A edit
    loop.

    A finding's level is a function of its transition label alone, so
    every computed outcome is a per-signature level table built from
    per-label levels and diffed against the base table by one builder
    ({!Risk_diff.of_levels}). {!prepare} levels the compiled plan's
    distinct findable labels under the base profile once; {!eval_edit}
    then answers "what does this edit do to the report?":

    - edits the classifier proves report-preserving come back
      [Unchanged] with an empty {!Risk_diff.t};
    - Delete-permission edits (maintenance-exposure flips) level the
      findable labels of {!Risk_plan.repatch_maintenance}'s plan, and σ
      edits level the plan's findable labels under the edited profile
      ([Delta]) — one pass over labels, never over transitions;
    - profile edits that touch agreement, or policy edits needing a
      full re-evaluation over the reused LTS, are [Replay];
    - pure policy-shrink edits that do change the reachable transition
      structure but only within store cones level the
      distinct findable labels a cone-scoped reachability walk reaches
      ([Cone]);
    - the remaining structure-changing edits are [Full_rerun].

    [Unchanged], [Delta] and [Cone] outcomes are set- and
    level-identical to the exact path, with change lists in canonical
    (signature-sorted) order. [Replay]/[Full_rerun] candidates are not
    computed unless [~exact] routes them through
    {!Analysis.run_incremental} (byte-identical to a cold run, seconds
    on large models). *)

type classification = Unchanged | Delta | Cone | Replay | Full_rerun

val classification_to_string : classification -> string

type outcome = {
  edit : Edit.t;
  classification : classification;
  diff : Risk_diff.t option;
      (** [None] when the candidate was classified but not computed
          ([Replay]/[Full_rerun] without [~exact]). *)
  worst_after : Level.t option;  (** Same availability as [diff]. *)
}

type base

val prepare : Analysis.t -> (base, string) result
(** One pass over the plan's distinct findable labels (a
    [whatif/prepare] span). Fails when the analysis has no profile (and
    hence no disclosure report to delta against). *)

val worst_before : base -> Level.t

val num_signatures : base -> int
(** Distinct finding signatures of the plan's findable labels, at any
    level. *)

val num_sites : base -> int
(** Findable transitions ({!Risk_plan.num_findable_entries}). *)

val acl_candidates : base -> Edit.t list
(** The "try all single-ACL removals" candidate set: one single-tuple
    [Revoke] per concrete Read/Write grant of the base policy, plus one
    whole-store Delete [Revoke] per (actor, store) holding any Delete —
    maintenance exposure is store-level, so per-field Delete
    revocations are provably no-ops. *)

val eval_edit :
  ?exact:bool -> base -> Edit.t -> (outcome, string) result
(** Evaluate one candidate. Errors are application failures (unknown
    store, ...); classification never fails. Increments
    [whatif/incremental_hits] or [whatif/invalidated_lts] per
    candidate. The computed paths are read-only on the base; [~exact]
    runs a whole {!Analysis.run_incremental} per uncomputed candidate,
    which {!sweep} keeps sequential. *)

val improvement_score : Risk_diff.t -> int
(** Σ (rank before − rank after) over removed/added/changed
    signatures: positive = risk reduced. *)

type ranked = { outcome : outcome; score : int }

val sweep : ?jobs:int -> ?exact:bool -> base -> Edit.t list -> ranked list
(** Evaluate every candidate and rank by descending {!improvement_score}
    (uncomputed candidates last, ties in candidate order), under a
    [phase/whatif] span. [~jobs] fans the (read-only) delta evaluations
    over a domain pool; forced sequential when [~exact]. *)
