(** Profile elicitation (paper §III-A: "This information can be obtained
    directly from the user through a questionnaire").

    Users are segmented on Westin's privacy indexes (paper ref [1]):
    fundamentalists are highly protective by default, pragmatists
    moderately, the unconcerned barely. Per-field answers override the
    segment's baseline; unanswered base fields of the diagram get the
    baseline. Anon variants stay at 0 unless answered explicitly. *)

open Mdp_dataflow

type westin = Fundamentalist | Pragmatist | Unconcerned

val baseline : westin -> float
(** 0.8 / 0.5 / 0.15. *)

type concern = Not_concerned | Somewhat_concerned | Very_concerned

val concern_sensitivity : concern -> float
(** 0.1 / 0.5 / 0.9. *)

type answer = { field : Field.t; concern : concern }

val profile :
  Diagram.t ->
  westin ->
  agreed_services:string list ->
  answers:answer list ->
  User_profile.t
