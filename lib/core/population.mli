(** Population-level risk analysis.

    §III-A notes the analysis "takes the user privacy control
    requirements ... hence there is an instance for each user. The
    process can be executed with running users of the system, or with
    simulated users in the development phase." This module runs the
    disclosure analysis for a whole population of (simulated or real)
    profiles over one generated LTS and aggregates the results into a
    design-time report: how many users face which worst risk level, and
    which (actor, store) accesses drive it. *)

type spec = {
  seed : int;
  size : int;
  westin_mix : (Questionnaire.westin * float) list;
      (** Segment weights; normalised internally. Westin's surveys put
          roughly 25/55/20 across
          fundamentalists/pragmatists/unconcerned. *)
  agree_probability : float;
      (** Independent probability that a user agrees to each service. *)
}

val default_mix : (Questionnaire.westin * float) list

val simulate :
  ?cancel:Mdp_obs.Cancel.t ->
  spec ->
  Mdp_dataflow.Diagram.t ->
  User_profile.t list
(** Deterministic in [spec.seed]. Every user answers the questionnaire
    with their segment's baseline (no per-field overrides), so a profile
    depends only on (segment, agreed services): each distinct one is
    built once through {!Questionnaire.profile}, and the users share
    these immutable profiles, at most [segments x 2^|services|] of them
    (a segment named twice in the mix is still one segment).

    @raise Mdp_obs.Cancel.Cancelled when [cancel] fires; it is polled
    every few thousand users. *)

type hotspot = {
  actor : string;
  store : string option;
  affected : int;
      (** Users with at least one finding on this access — each user
          counted once per (actor, store), whatever the number or
          levels of their findings there. *)
  worst : Level.t;
}

type aggregate = {
  total : int;
  by_level : (Level.t * int) list;
      (** Users per worst-finding level, [None_] first. Sums to
          [total]. *)
  hotspots : hotspot list;
      (** Sorted worst level first, then reach, then (actor, store) —
          a total order, so the list is deterministic. *)
}

val analyse :
  ?matrix:Risk_matrix.t ->
  ?model:Disclosure_risk.likelihood_model ->
  Universe.t ->
  Plts.t ->
  User_profile.t list ->
  aggregate
(** The naive reference path: one full [Disclosure_risk.analyse] per
    profile over the one shared LTS. *)

val classes :
  ?cancel:Mdp_obs.Cancel.t ->
  Universe.t ->
  User_profile.t list ->
  (User_profile.t * int) list
(** Profile equivalence classes: (representative, member count) in
    first-occurrence order. Two profiles are equivalent when they have
    the same sensitivity on every universe field and agreed to the same
    diagram services — everything the disclosure analysis can observe —
    so a simulated population collapses to at most
    [segments x 2^|services|] classes. The counts sum to the input
    length. The cost is one key per physically distinct profile: a
    profile seen again ([==], as {!simulate} shares them) adds to its
    class's count through a small identity memo, and a physically
    distinct profile with an equal key joins its class through the key
    table. Each key is filled in one pass over the profile's
    sensitivities. On a list of distinct profiles the memo gives up
    after a few dozen misses, so such a list costs one key per profile.
    Counts the computed keys under [population/class_keys].

    @raise Mdp_obs.Cancel.Cancelled when [cancel] fires; it is polled
    every few thousand profiles. *)

val analyse_compiled :
  ?matrix:Risk_matrix.t ->
  ?model:Disclosure_risk.likelihood_model ->
  ?cancel:Mdp_obs.Cancel.t ->
  ?plan:Risk_plan.t ->
  ?classes:(User_profile.t * int) list ->
  Universe.t ->
  Plts.t ->
  User_profile.t list ->
  aggregate
(** The compiled engine: one {!Risk_plan.compile} pass over the LTS,
    profiles deduplicated through {!classes}, each class evaluated once
    via [Risk_plan.summary] and weighted by its size, with the class
    summaries folded by one merge — no per-profile reports exist at any
    point. It shares {!prepare}'s class-evaluation loop and
    {!cached_aggregate}'s merge, which uses only sums and maxes, so the
    result is byte-identical to {!analyse} on the same inputs. Unlike
    {!analyse} it leaves the LTS labels untouched.

    [cancel] is polled every 64 class evaluations: a fired token stops
    the loop and the call raises [Mdp_obs.Cancel.Cancelled] — no
    partial aggregate escapes and the plan/LTS remain untouched and
    reusable.

    [plan] and [classes] let a long-lived caller (the serve daemon)
    reuse a previously compiled risk plan and previously computed
    profile classes instead of recomputing them: [plan] must have been
    compiled from the same [u]/[lts] with the same matrix and model,
    and [classes] must be {!classes}' output for [u] and the intended
    population — when [classes] is given, [profiles] is ignored and
    [total] is the sum of the class weights. *)

(** {2 Cached class summaries and σ-delta reaggregation}

    A sensitivity edit cannot move a class whose σ already sits at the
    edited value, so a what-if over a population only needs to
    re-evaluate the classes the edit actually touches. {!prepare}
    evaluates every class once and keeps the per-class summaries keyed
    by their σ vectors; {!reaggregate} then answers a σ-override edit
    by re-evaluating only the stale classes and re-merging — the result
    is identical to a fresh {!analyse_compiled} over the edited
    profiles, because the merge is the same sums-and-maxes fold and
    classes that merge under the edit contribute their weights
    additively either way. *)

type cached

val prepare :
  ?matrix:Risk_matrix.t ->
  ?model:Disclosure_risk.likelihood_model ->
  ?cancel:Mdp_obs.Cancel.t ->
  ?plan:Risk_plan.t ->
  ?classes:(User_profile.t * int) list ->
  Universe.t ->
  Plts.t ->
  User_profile.t list ->
  cached
(** Evaluate every class once and retain
    the summaries. Same [plan]/[classes] reuse contract and [cancel]
    discipline as {!analyse_compiled}. *)

val cached_aggregate : cached -> aggregate
(** The aggregate over the cached summaries — byte-identical to
    {!analyse_compiled} on the same inputs. *)

val reaggregate :
  ?cancel:Mdp_obs.Cancel.t ->
  cached ->
  overrides:(Mdp_dataflow.Field.t * float) list ->
  aggregate * int * int
(** Apply a σ-override edit ([Edit.classify]'s [inv_sigma] payload: the
    changed fields with their new values, applied population-wide) and
    re-merge: [(aggregate, classes_reused, classes_reevaluated)]. A
    class is reused iff its σ already equals every override value;
    otherwise its representative is re-evaluated with the overrides
    applied. The aggregate equals a fresh {!analyse_compiled} over the
    edited profiles. The cache itself is not mutated (the edit is a
    what-if, not a commit). *)

val pp_aggregate : Format.formatter -> aggregate -> unit
