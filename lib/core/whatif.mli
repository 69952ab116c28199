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

    Every computed outcome is set- and level-identical to
    {!Analysis.run_incremental} on the same edit (and so to a cold
    run), with change lists in canonical (signature-sorted) order.
    [Replay]/[Full_rerun] candidates are computed only under [~exact]:
    a replay levels the reused plan's labels under the edited profile,
    a full rerun levels the findable labels of a cold exploration of
    the edited model (seconds on large models).

    Everything that depends only on the base — the level table, the
    classification's before side ({!Edit.baseline}) and the cone walks'
    index of the base LTS ({!Regen.index}) — is built by {!prepare} and
    only read afterwards. *)

type classification = Unchanged | Delta | Cone | Replay | Full_rerun

val classification_to_string : classification -> string

type outcome = {
  edit : Edit.t;
  classification : classification;
  diff : Risk_diff.t option;
      (** [None] when the candidate was classified but not computed
          ([Replay]/[Full_rerun] without [~exact], or a [Full_rerun]
          whose edited model exceeds [max_states]). *)
  worst_after : Level.t option;  (** Same availability as [diff]. *)
}

type base

val prepare : Analysis.t -> (base, string) result
(** One pass over the plan's distinct findable labels and one row pass
    over the base LTS (a [whatif/prepare] span). Fails when the analysis
    has no profile (and hence no disclosure report to delta
    against). *)

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
(** Evaluate one candidate, classifying it once against the base.
    Errors are application failures (unknown store, ...);
    classification never fails. Increments [whatif/incremental_hits]
    or [whatif/invalidated_lts] per candidate, and an outcome computed
    only under [~exact] also records {!Analysis.count_incremental}, as
    the incremental run it stands in for. Every path reads the base
    only; under [~exact] a full rerun explores the edited model cold,
    which {!sweep} keeps sequential. A cone walk or full rerun past the
    options' [max_states] leaves the candidate an uncomputed
    [Full_rerun]; a walk that passed it explores nothing cold. Counts
    each refused cone patch as [whatif/cone_refused/<reason>]. *)

val improvement_score : Risk_diff.t -> int
(** Σ (rank before − rank after) over removed/added/changed
    signatures: positive = risk reduced. *)

type ranked = { outcome : outcome; score : int }

val sweep : ?jobs:int -> ?exact:bool -> base -> Edit.t list -> ranked list
(** Evaluate every candidate and rank by descending {!improvement_score}
    (uncomputed candidates last, ties in candidate order), under a
    [phase/whatif] span. [~jobs] fans the (read-only) delta and cone
    evaluations over a domain pool, all reading one base; forced
    sequential when [~exact], whose full reruns explore cold. *)
