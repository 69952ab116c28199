(** Release acceptance gate.

    §III-B ends with exactly this workflow: "The risk score is used to
    choose pseudonymisation techniques or find out if a technique
    provides acceptable risk versus data utility ... If a technique
    requires too much data removal and utility is shown to be likely
    adversely affected, the technique used would clearly be not
    appropriate." A gate bundles the thresholds and evaluates a candidate
    release against its original, reporting every failed criterion. *)

open Mdp_anon

type criteria = {
  k : int;  (** Minimum equivalence-class size. *)
  l : int option;  (** Distinct l-diversity per sensitive attribute. *)
  t : float option;  (** t-closeness bound per sensitive attribute. *)
  max_violation_ratio : float option;
      (** §III-B value-risk violations / records, worst case over all
          quasi subsets ({!Mdp_anon.Columnar.value_risk_sweep}).
          Requires [value_policy]. *)
  value_policy : Value_risk.policy option;
  max_mean_drift : float option;
      (** Utility: allowed |mean(original) - mean(release)| per numeric
          sensitive attribute. *)
}

val default : k:int -> criteria
(** Only the k-anonymity criterion; add others by record update. *)

type verdict = { accepted : bool; failures : string list }

val evaluate : original:Dataset.t -> release:Dataset.t -> criteria -> verdict
(** Sensitive attributes are taken from the release's attribute
    taxonomy. The original is only consulted for utility drift (pass the
    release twice if no original is available — drift is then 0). *)

val pp_verdict : Format.formatter -> verdict -> unit
