(** Whole-system data-flow model: the developer-authored artifact set of
    paper §II-A (data-flow diagrams + datastores with schemas), validated
    for internal consistency before any LTS is generated from it. *)

type t = private {
  actors : Actor.t list;
  datastores : Datastore.t list;
  services : Service.t list;
}

val make :
  actors:Actor.t list ->
  datastores:Datastore.t list ->
  services:Service.t list ->
  (t, string list) result
(** Validates and builds. All errors are reported at once. Checks:
    unique ids (across actors, datastores and services; actor and store
    ids must also not collide with each other or with ["User"], and no
    id may be ["-"], which event traces read as "none"); every
    flow endpoint resolves; [collect] flows carry base fields only;
    [create]/[read] flow fields belong to the target/source store's
    schemas; [anon] flow fields are base fields whose anon variants the
    anonymised store's schemas contain; [read] flows from anonymised
    stores carry anon fields. *)

val make_exn :
  actors:Actor.t list ->
  datastores:Datastore.t list ->
  services:Service.t list ->
  t
(** @raise Invalid_argument with all messages on validation failure. *)

val find_actor : t -> string -> Actor.t option
val find_store : t -> string -> Datastore.t option
val find_service : t -> string -> Service.t option
val store_kind : t -> string -> Datastore.kind
(** @raise Not_found on an unknown store (cannot happen on ids drawn from
    a validated diagram). *)

val classify : t -> Flow.t -> Flow.action_kind
(** §II-B extraction rule, resolved against this diagram's stores. *)

val all_fields : t -> Field.t list
(** The field universe: every field appearing in any schema or flow, plus
    the anon variants introduced by [anon] flows. Deterministic order. *)

val all_flows : t -> (Service.t * Flow.t) list
val pp : Format.formatter -> t -> unit
