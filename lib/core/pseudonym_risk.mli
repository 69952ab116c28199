(** Pseudonymisation value risk on the LTS (paper §III-B).

    A value risk for actor [a] and sensitive field [f] is present in every
    state where [a] has accessed the pseudonymised variant f_anon while
    holding access rights to f_anon but not to [f] itself, and does not
    already hold [f]. From each such at-risk state leads a dotted
    *risk-transition* (Fig. 4): an inferred read of [f] by [a], carrying
    the §III-B risk scores computed from the bound release dataset — the
    equivalence sets induced by the anon fields [a] has actually read,
    the per-record marginal probabilities, and the count of policy
    violations (Fig. 4's 0 / 2 / 4 labels). Risk-transitions are kept
    beside the explored LTS, never added to it. *)

open Mdp_dataflow

type binding = {
  store : string;  (** The anonymised datastore the release came from. *)
  dataset : Mdp_anon.Dataset.t;
      (** The released records: generalised quasi columns, raw sensitive
          column. Simulated data at design time, live data at run time
          (§III-B "Using Risk Scores"). *)
  attr_fields : (string * Field.t) list;
      (** Dataset attribute name -> the model's *base* field whose anon
          variant carries it in the release. *)
  policy : Mdp_anon.Value_risk.policy;
      (** Closeness + confidence; [policy.sensitive] must be bound in
          [attr_fields]. *)
}

val make_binding :
  store:string ->
  dataset:Mdp_anon.Dataset.t ->
  attr_fields:(string * Field.t) list ->
  policy:Mdp_anon.Value_risk.policy ->
  binding
(** @raise Invalid_argument when [policy.sensitive] or a quasi attribute
    of the dataset is unbound, a bound attribute is missing from the
    dataset, or the policy fails {!Mdp_anon.Value_risk.check_policy}. *)

type risk_transition = {
  src : Plts.state_id;
  dst : Plts.state_id;
      (** The state where the actor has identified the field: not an
          explored state, but an id from [Plts.num_states] up, one per
          distinct (src, actor, field). *)
  actor : string;
  field : Field.t;  (** The base sensitive field inferred. *)
  fields_read : Field.t list;
      (** Anon quasi fields the actor had accessed at [src]. *)
  report : Mdp_anon.Value_risk.report;
}

val analyse : Universe.t -> Plts.t -> binding list -> risk_transition list
(** The risk-transitions out of the explored states, binding by binding,
    each binding's ordered by source state. Bindings that infer the same
    field from the same state share its target. The LTS is left
    untouched. Each binding's dataset is compiled once per call
    ({!Mdp_anon.Columnar}), and the transitions of one binding that read
    the same quasi fields share one (physically equal) report. *)

val num_targets : risk_transition list -> int
(** Distinct targets: the states the risk-transitions add to the
    explored LTS's count in Fig. 4, each with one incoming
    risk-transition. *)

val check :
  max_violation_ratio:float -> risk_transition list -> (unit, string) result
(** Design-time gate (§IV-B: "a system designer could declare that a
    number of violations above 50% is unacceptable. The system would now
    throw an error"): [Error] describes the worst offending transition. *)

val pp_risk_transition : Format.formatter -> risk_transition -> unit
