(** Declarative privacy requirements checked against the generated LTS.

    The paper's related work (§V) observes that behaviour-vs-policy
    compliance checks "only check if a system behaves according to its
    stated privacy policy (our LTS can be similarly analysed)" — this
    module is that analysis: a small requirement language whose
    violations come with witness traces. *)

open Mdp_dataflow

type t =
  | Never_identifies of { actor : string; field : Field.t }
      (** No reachable state has [has(actor, field)]. *)
  | Never_could_identify of { actor : string; field : Field.t }
      (** No reachable state has [could(actor, field)] — stronger: the
          data must never even sit where the actor's permissions reach. *)
  | Only_for_purposes of { field : Field.t; purposes : string list }
      (** Every reachable transition carrying the field declares one of
          these purposes (policy-derived potential actions carry no
          purpose and therefore violate). *)
  | No_action_by of { actor : string; kind : Action.kind }
      (** The actor never performs this action kind on any reachable
          transition. *)
  | Max_disclosure_risk of Level.t
      (** No reachable transition is annotated above this level by the
          [annotate] map {!check} is given. *)

type violation = {
  requirement : t;
  witness : Action.t list;
      (** Shortest trace from the initial state to the violation; the
          last element is the offending transition when the requirement
          constrains transitions. *)
}

val of_spec : string -> (t, string) result
(** Compact textual form, used by the CLI and suitable for config files:
    [never=Actor:Field], [nevercould=Actor:Field], [noaction=Actor:KIND],
    [purposes=Field:p1;p2], [maxrisk=LEVEL]. *)

val check :
  annotate:(Action.t -> Action.t) -> Universe.t -> Plts.t -> t list ->
  violation list
(** One violation (with a shortest witness) per violated requirement;
    requirements that hold contribute nothing. [Max_disclosure_risk]
    tests, and witnesses show, labels as [annotate] maps them: a
    profile's {!Risk_plan.annotate}, or [Fun.id] for raw labels. *)

val holds :
  annotate:(Action.t -> Action.t) -> Universe.t -> Plts.t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_violation : Format.formatter -> violation -> unit
