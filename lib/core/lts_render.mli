(** Rendering of the privacy LTS (paper Fig. 3 shape): flow transitions
    solid, policy-derived potential actions dashed. *)

val to_dot : Plts.t -> string
(** Nodes are labelled with their state numbers. *)

val summary : Universe.t -> Plts.t -> string
(** One-paragraph textual account: state/transition counts, counts per
    action kind and provenance. *)

val summary_with_risks : Plts.t -> Pseudonym_risk.risk_transition list -> string
(** {!summary} of the LTS together with its §III-B risk-transitions
    (paper Fig. 4): each of {!Pseudonym_risk.num_targets} counts as one
    more state and one more transition, an [inferred] [read]. *)
