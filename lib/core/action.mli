(** Transition labels of the privacy LTS (paper §II-B): an action kind, the
    fields acted on, the data schema they belong to, the performing actor,
    an optional purpose, and an optional privacy-risk measure "whose value
    is calculated and annotated during risk analysis". *)

open Mdp_dataflow

type kind = Collect | Create | Read | Disclose | Anon | Delete

type provenance =
  | From_flow of { service : string; order : int }
      (** Derived from a data-flow arrow. *)
  | Potential
      (** Derived from the access policy alone: an action an actor is
          permitted, but no service flow prescribes (e.g. §IV-A's
          Administrator read of the EHR). *)

type risk = { impact : Level.t; likelihood : Level.t; level : Level.t }
(** §III-A disclosure-risk annotation. *)

type t = {
  kind : kind;
  fields : Field.t list;
  schema : string option;
  store : string option;  (** Datastore the action touches, when any. *)
  actor : string;  (** ["User"] for the subject's own part in [Collect]. *)
  purpose : string option;
  provenance : provenance;
  risk : risk option;
}

val make :
  ?schema:string ->
  ?store:string ->
  ?purpose:string ->
  ?risk:risk ->
  kind:kind ->
  fields:Field.t list ->
  actor:string ->
  provenance ->
  t

val with_risk : t -> risk -> t

val findable : t -> bool
(** A read, from a flow or a policy-permitted potential read: the
    labels the §III-A disclosure analysis levels and reports. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}; used by the LTS for duplicate-transition
    detection. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_risk : Format.formatter -> risk -> unit
val pp : Format.formatter -> t -> unit
(** Full label, e.g.
    [read(Diagnosis:HealthRecord) by Administrator \[potential\] risk=Medium]. *)
