(** Compiled disclosure-risk analysis (paper §III-A at population
    scale).

    [Disclosure_risk.analyse] recomputes profile-independent facts —
    reader sets, rogue-flow scans, actor/field index lookups — for
    every transition on every call, which makes a population sweep
    O(profiles x transitions x flows). The risk of a transition is a
    function of its label alone, so [compile] hoists all of it into one
    plan per distinct label: the action kind, the field and actor
    indices, the policy reader sets of created fields, the rogue-read
    candidate services per (actor, store), and the likelihood scenario
    structure. The plan keeps no transitions of its own: it reads the
    LTS's edge rows, mapping each interned label id to its plan. A
    profile then reduces to a {e view} — a σ vector indexed
    by field, an allowance vector indexed by actor, an agreement bitset
    indexed by diagram service — and per-profile evaluation is a walk
    over the label table.

    Both evaluation modes reproduce the naive path bit for bit (same
    floats, same ordering, same annotated actions): {!analyse} returns a
    [Disclosure_risk.report] equal to what [Disclosure_risk.analyse]
    would return, and {!summary} computes exactly the per-user facts
    [Population] aggregates. *)

type t

val compile :
  ?matrix:Risk_matrix.t ->
  ?model:Disclosure_risk.likelihood_model ->
  Universe.t ->
  Plts.t ->
  t
(** One pass over the LTS's edge rows, one plan per distinct label
    (defaults match [Disclosure_risk.analyse]), plus the LTS's
    {!Plts.witness_tree} for {!analyse}'s witnesses; counts
    [risk_plan/labels] and [risk_plan/entries]. The plan is tied to the
    LTS, which exploration fixes for good, and is immutable. *)

val slots : t -> (string * string option) array
(** The distinct (actor, store) pairs over which findings can occur —
    the hotspot keys of {!summary}'s [slot_levels], in first-occurrence
    order. *)

val matrix : t -> Risk_matrix.t
val model : t -> Disclosure_risk.likelihood_model

val num_entries : t -> int
(** Number of transitions of the plan's LTS ([Plts.num_transitions]). *)

val with_universe : t -> Universe.t -> t
(** Rebind the plan to an edited universe {e known} to leave every
    compiled entry valid (the incremental engine's LTS-preserving,
    report-preserving policy edits). Shares all compiled arrays. *)

val repatch_maintenance : t -> Universe.t -> t
(** Rebind to a universe whose policy differs only in Delete
    permissions (with potential deletes off): recomputes the
    maintenance-exposure flag of every read label from the new deleter
    sets and shares everything else. The result equals a fresh
    [compile u lts] at the cost of one label walk. *)

type summary = {
  worst : Level.t;  (** [Disclosure_risk.max_level] of the report. *)
  slot_levels : Level.t array;
      (** Per {!slots} entry, the profile's worst finding level on that
          (actor, store) access; [None_] = no finding there. *)
}

val summary : t -> User_profile.t -> summary
(** The per-user facts the population aggregate needs, without
    materialising a report (no witnesses, no sorting, no label
    rewriting). Safe to call concurrently from several domains on the
    same plan. *)

val analyse : t -> User_profile.t -> Disclosure_risk.report
(** Drop-in replacement for [Disclosure_risk.analyse ~matrix ~model u
    lts profile]: the identical report. Each distinct label is
    evaluated and annotated once; its findings and witness hops share
    that one [Action.t]. Witness hops are shared per state, not unwound
    per finding: one ascending pass over the plan's
    {!Plts.witness_tree} gives every state its
    {!Disclosure_risk.trail}, one cell on its parent's, and each finding
    points at its source's. Reads only the plan, so it is safe from
    several domains. *)

val annotate : t -> User_profile.t -> Action.t -> Action.t
(** [annotate t profile] evaluates every distinct label once under
    [profile], as {!analyse} does, and returns the map from a raw LTS
    label to its annotated copy: a findable label gets its
    {!Action.risk}, any other label comes back unchanged. The LTS is
    never written; readers that show risk ({!Requirement},
    [Mdp_runtime.Monitor]) take this map. *)

(** {2 Per-label re-levelling}

    A finding's level is a function of its transition label alone, so a
    what-if edit that keeps the transition structure is answered by
    re-levelling the plan's distinct findable labels: under an edited
    profile's {!view} (σ edits), or on {!repatch_maintenance}'s plan
    (Delete-permission edits). An edit that changes the structure is
    answered by levelling the labels a cone walk or a cold exploration
    reaches with {!label_level}. Each is one pass over labels, never over
    transitions. *)

val num_findable_entries : t -> int
(** Number of transitions whose label is findable ({!Action.findable})
    — the sites a finding can occur at. *)

type view
(** A profile reduced to dense per-index lookups (σ by field index,
    allowance by actor index, agreement by service bitset). Built
    against a plan's universe; valid for any universe sharing the
    diagram — in particular every pure policy edit. Read-only once
    built, so one view may serve several domains. *)

val view : t -> User_profile.t -> view

val iter_findable : t -> view -> (Action.t -> Level.t -> unit) -> unit
(** Every distinct findable label of the plan, in first-occurrence
    order, with the finding level its transitions get under [view] —
    the same per-label loop {!summary} folds. Reads only the plan, so
    it is safe from several domains. *)

type labeller
(** Per-universe label semantics — index lookups, reader sets, service
    ids, rogue-read candidates — the pieces {!compile} precomputes
    before walking transitions, without the transition walk. The
    cone-scoped what-if path builds one for the {e edited} universe and
    levels reachable labels directly. *)

val make_labeller : Universe.t -> labeller

val labeller_view : labeller -> User_profile.t -> view
(** {!view} against the labeller's universe: what a plan compiled over
    it would give, without compiling one. *)

val label_level :
  labeller ->
  matrix:Risk_matrix.t ->
  model:Disclosure_risk.likelihood_model ->
  view ->
  Action.t ->
  Level.t
(** The finding level a read transition with this label would get under
    {!analyse} on the labeller's universe — float-identical to the
    compiled path ({!summary}'s skip chain included). For Read labels a
    finding's level is a pure function of its label: impact from
    (actor, fields), likelihood from (provenance, deleter sets,
    diagram rogue candidates, agreement). [None_] for non-findable or
    below-threshold labels. *)
