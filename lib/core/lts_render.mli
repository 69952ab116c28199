(** Rendering of the privacy LTS (paper Fig. 3 / Fig. 4 shape): flow
    transitions solid, policy-derived potential actions dashed,
    §III-B inferred risk-transitions dotted and labelled with their
    violation counts; risk-annotated reads are coloured by level. *)

val to_dot : Plts.t -> string
(** Nodes are labelled with their state numbers. *)

val summary : Universe.t -> Plts.t -> string
(** One-paragraph textual account: state/transition counts, counts per
    action kind and provenance. *)
