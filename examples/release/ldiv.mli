(** l-diversity (Machanavajjhala et al. 2006, paper ref [6]).

    k-anonymity bounds re-identification but not attribute disclosure: a
    class whose sensitive values all (nearly) agree still leaks them — the
    exact weakness the paper's value risk (§III-B) measures. l-diversity
    requires diverse sensitive values per class; it removes the paper's
    Table-I style value risk when satisfied (paper: "the above is a risk
    of k-anonymization that is removed when l-diversity is considered"). *)

open Mdp_anon

val distinct : Dataset.t -> sensitive:string -> int
(** The largest l such that every equivalence class (on the quasi columns)
    has at least l distinct values of [sensitive]; 0 on an empty
    dataset. *)
