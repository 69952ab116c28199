(** Access-control-list entries.

    An entry grants or denies a set of permissions on (a selection of
    fields of) one datastore to a subject — a named actor or a role.
    Policies are entry lists evaluated deny-overrides (see {!Policy}). *)

open Mdp_dataflow

type subject = Actor_subject of string | Role_subject of string

type field_selector = All_fields | Fields of Field.t list

type effect_ = Allow | Deny

type entry = {
  effect_ : effect_;
  subject : subject;
  store : string;
  selector : field_selector;
  perms : Permission.t list;
}

val allow :
  subject -> store:string -> ?fields:Field.t list -> Permission.t list -> entry
(** Omitting [fields] selects all fields of the store. *)

val deny :
  subject -> store:string -> ?fields:Field.t list -> Permission.t list -> entry

val selector_matches : field_selector -> Field.t -> bool

val subject_matches : Rbac.t -> Actor.t -> subject -> bool
(** True when the subject names the actor, or names a role the actor holds
    (directly or through the hierarchy). *)

