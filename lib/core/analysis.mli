(** End-to-end façade over the pipeline: model -> generated LTS ->
    consistency + disclosure risk + pseudonymisation risk -> report.
    This is the API the examples and the CLI drive; the individual
    analyses remain available for finer control. *)

type params = {
  options : Generate.options;
  matrix : Risk_matrix.t;
  model : Disclosure_risk.likelihood_model;
  profile : User_profile.t option;
  bindings : Pseudonym_risk.binding list;
}

type t = {
  params : params;
  universe : Universe.t;
  lts : Plts.t;  (** Never written after exploration. *)
  consistency : Consistency.gap list;
  disclosure : Disclosure_risk.report option;
      (** [None] when no profile was supplied. *)
  pseudonym : Pseudonym_risk.risk_transition list;
      (** §III-B risk-transitions, kept beside [lts]: their targets are
          not states of it. *)
  plan : Risk_plan.t option;
      (** The compiled risk plan behind [disclosure], kept so
          {!run_incremental} and the what-if sweep can reuse it. *)
}

val run :
  ?options:Generate.options ->
  ?matrix:Risk_matrix.t ->
  ?model:Disclosure_risk.likelihood_model ->
  ?profile:User_profile.t ->
  ?bindings:Pseudonym_risk.binding list ->
  Mdp_dataflow.Diagram.t ->
  Mdp_policy.Policy.t ->
  t
(** @raise Invalid_argument when the policy does not validate against the
    diagram. *)

val rerun_with_policy : t -> Mdp_policy.Policy.t -> t
(** The §IV-A design loop: same model, profile, bindings and parameters;
    edited policy; everything regenerated. *)

val run_incremental :
  ?cancel:Mdp_obs.Cancel.t ->
  ?inv:Edit.invalidation ->
  previous:t ->
  Edit.t list ->
  t
(** The same loop, recomputing only what the edits invalidate. The
    result is byte-identical to [run] on the edited inputs (enforced by
    test/test_whatif.ml and the PR 8 bench gate): [Edit.classify]
    bounds the damage, and surviving artifacts — LTS, compiled plan
    (possibly with maintenance flags repatched), disclosure report,
    pseudonym transitions, consistency gaps — are threaded through
    unchanged. When the reachable transition structure may have changed
    the edited model is explored cold, exactly as [run] does; that
    exploration is the only step [cancel] interrupts.

    [inv], when given, must be the edits' classification
    ([Edit.classify] of [inputs_of previous] and the edited inputs); a
    caller that has already classified the edits passes it so they are
    not classified twice.

    Counters (under [Mdp_obs], see {!count_incremental}) under a
    [phase/whatif] span.

    The result may share [previous]'s LTS and plan; [previous] stays
    valid, and so does every map {!annotate} made from it.

    @raise Invalid_argument when an edit does not apply (unknown
    service, invalid policy, sensitivity out of range, ...).
    @raise Mdp_obs.Cancel.Cancelled when [cancel] fires mid-exploration. *)

val count_incremental : Edit.invalidation -> unit
(** The counters {!run_incremental} records for edits so classified:
    [whatif/incremental_hits] when the LTS is reused,
    [whatif/invalidated_lts] when it is explored again and
    [whatif/invalidated_plan] when the plan is recompiled or
    repatched. *)

val annotate : t -> Action.t -> Action.t
(** The run's label annotator: {!Risk_plan.annotate} on its plan and
    profile, or [Fun.id] when the run has no profile. *)

val inputs_of : t -> Edit.inputs
(** The run's model inputs as an editable value. *)

(** {1 Structured failure}

    The generation phase can abort in three recoverable ways: the state
    guard trips ([Lts.Too_many_states]), a cancellation token fires
    (deadline or explicit cancel), or the spill tier hits an OS error
    ([Spill.Io_error]). Long-lived callers — the CLI and the
    [mdpriv serve] daemon — need those as data, not as escaping
    exceptions with backtraces. *)

type failure =
  | State_limit of { limit : int; hint : string }
      (** The exploration guard tripped at [limit] states; [hint] is a
          ready-made remediation message. *)
  | Cancelled of { phase : string; deadline : bool }
      (** A cancellation token fired during [phase]; [deadline]
          distinguishes a blown budget from an explicit cancel. *)
  | Spill_io of { message : string }
      (** The memory budget's disk tier failed (unusable spill
          directory, full disk); [message] names the call, path and
          system error. The run's spill directory is already gone. *)

val state_limit_hint : string
(** The standard remediation hint attached to {!State_limit} failures. *)

val failure_message : failure -> string

val checked : (unit -> 'a) -> ('a, failure) result
(** Run an exploring computation, mapping the three failure modes'
    exceptions to {!failure} values (a cancellation is attributed to
    the ["explore"] phase). *)

val run_checked :
  ?options:Generate.options ->
  ?matrix:Risk_matrix.t ->
  ?model:Disclosure_risk.likelihood_model ->
  ?profile:User_profile.t ->
  ?bindings:Pseudonym_risk.binding list ->
  ?cancel:Mdp_obs.Cancel.t ->
  Mdp_dataflow.Diagram.t ->
  Mdp_policy.Policy.t ->
  (t, failure) result
(** {!run} under {!checked}, plus [cancel] forwarded to the
    exploration. Still raises [Invalid_argument] on a policy that does
    not validate — that is caller error, not an operational failure. *)

val pp_summary : Format.formatter -> t -> unit
