(** Risk of unwanted disclosure (paper §III-A).

    Impact of a transition = the maximum sensitivity σ(d, a) among the
    state variables the transition sets, measured relative to the absolute
    privacy state: for a [read]/[collect]/[disclose] that is the acting or
    receiving actor's σ over the fields; for a [create]/[anon] it ranges
    over every actor the policy then allows to read the created fields
    (the paper's σ(create) = σ(d) example). [delete] sets nothing and has
    no impact.

    Likelihood attaches to [read] transitions only ("This leaves one
    action: read that impacts the likelihood of a disclosure") and
    combines the probabilities of the paper's three uncorrelated
    scenarios: accidental access while querying, exposure during
    maintenance deletion (the actor holds the Delete permission), and
    execution of a service the user did not agree to (the actor
    participates in a non-agreed service that reads the store). The
    likelihood is their sum, clipped to 1 — see {!combine_scenarios}.

    [analyse] returns the findings sorted by risk; every [read] label
    in them (finding or witness hop) carries its {!Action.risk}. The
    LTS itself is not written. *)

open Mdp_dataflow

type likelihood_model = {
  accidental_access : float;
  maintenance_exposure : float;
  rogue_service : float;
}

val default_likelihood : likelihood_model
(** 0.05 / 0.02 / 0.01. *)

val combine_scenarios :
  accidental:float -> maintenance:float -> rogue:float -> float
(** The single place the three scenario probabilities are combined: the
    paper's §III-A semantics, likelihood = a + m + r, clipped to 1. With
    aggressive models the sum can exceed 1; each saturating evaluation
    then increments the [risk/likelihood_saturated] metrics counter, so
    the clamp is visible rather than silent. {!Risk_plan} evaluates
    likelihoods through this same function, so the naive and compiled
    engines are float-identical under every model, including ones where
    the sum crosses 1. *)

(** A witness stored leaf-first: the outermost cell is the last hop. A
    state's trail is one cell on top of its breadth-first parent's, so
    both engines build one cell per state, and every finding at a state
    shares that state's trail. Read it root-first with {!witness}. *)
type trail =
  | Start  (** The initial state: no hop. *)
  | Hop of trail * Action.t
      (** The trail to the parent state, then the (annotated) label of
          the edge that leads from it. *)

type finding = {
  src : Plts.state_id;
  dst : Plts.state_id;
  action : Action.t;  (** The annotated label. *)
  impact : float;
  likelihood : float;
  impact_level : Level.t;
  likelihood_level : Level.t;
  level : Level.t;
  trail : trail;
      (** A shortest action path from the initial state to [src], last
          hop outermost; {!witness} lists it from the initial state. *)
}

type report = {
  non_allowed : string list;
      (** Actors outside every agreed service (§III-A's first analysis
          output). *)
  findings : finding list;
      (** Risk-labelled [read] transitions with level above [None_],
          most severe first. *)
  exposures : finding list;
      (** [create]/[anon]/[collect]/[disclose] transitions with positive
          impact: places where sensitive data becomes identifiable by a
          non-allowed actor. Not risk-labelled (no likelihood dimension),
          reported for design feedback. *)
}

val witness : finding -> Action.t list
(** The finding's shortest action path from the initial state to its
    [src], first hop first: its {!trail} reversed, one fresh list per
    call. *)

val transition_impact : Universe.t -> User_profile.t -> Action.t -> float
(** Exposed for tests and ablations. *)

val transition_likelihood :
  Universe.t -> User_profile.t -> likelihood_model -> Action.t -> float
(** 0 for non-read actions. Applied to its first three arguments it
    returns a scorer that builds the diagram's flow list at most once. *)

val analyse :
  ?matrix:Risk_matrix.t ->
  ?model:likelihood_model ->
  Universe.t ->
  Plts.t ->
  User_profile.t ->
  report

val max_level : report -> Level.t
(** The worst finding's level ([None_] if no findings). *)

val findings_for : report -> actor:string -> finding list

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

val level_for :
  report -> actor:string -> store:string -> field:Field.t -> Level.t
(** Worst finding level among this actor's reads of the field in the
    store — the §IV-A "risk level of this event" lookup. *)
