(** Access-control policies: an RBAC role hierarchy plus ACL entries,
    evaluated deny-overrides (an access is allowed iff some [Allow] entry
    matches and no [Deny] entry matches).

    The §IV-A case study edits a policy to remove a risk ("the access
    policies were changed accordingly and the risk level was reduced"):
    {!revoke} and {!grant} are those edits, and {!diff} reports the change
    in the concrete permission relation they induce. *)

open Mdp_dataflow

type t = { rbac : Rbac.t; entries : Acl.entry list }

val make : ?rbac:Rbac.t -> Acl.entry list -> t

val allows :
  t -> diagram:Diagram.t -> actor:string -> Permission.t -> store:string ->
  Field.t -> bool
(** False for unknown actors. *)

val allows_at :
  t -> diagram:Diagram.t -> actor:string -> store:string ->
  Permission.t -> Field.t -> bool
(** [allows_at t ~diagram ~actor ~store] is [allows] for one (actor,
    store) pair, with the entries that can match it selected once:
    apply it partially when asking about many fields and
    permissions. *)

val grant : t -> Acl.entry -> t
(** Appends an entry (of either effect). *)

val revoke :
  t -> subject:Acl.subject -> store:string -> ?fields:Field.t list ->
  Permission.t list -> t
(** Adds a [Deny] entry: deny-overrides makes this a true revocation
    whatever allow entries exist. *)

val validate : t -> Diagram.t -> (unit, string list) result
(** Every subject names a known actor (role subjects are unconstrained:
    roles are open-world), every store exists, and selected fields belong
    to the store's schemas. *)

type grant_tuple = {
  actor : string;
  perm : Permission.t;
  store : string;
  field : Field.t;
}

val concrete_grants : t -> Diagram.t -> grant_tuple list
(** The full concrete permission relation over the diagram's actors,
    stores and schema fields. *)

val diff : before:t -> after:t -> Diagram.t -> grant_tuple list * grant_tuple list
(** [(removed, added)] concrete grants, each in {!concrete_grants}
    order. *)

type relation
(** A policy's {!concrete_grants} with a membership table, so that one
    side of many diffs is computed once. Read-only once built. *)

val relation : t -> Diagram.t -> relation

val diff_relations :
  before:relation -> after:relation -> grant_tuple list * grant_tuple list
(** {!diff} of two relations over the same diagram. *)
