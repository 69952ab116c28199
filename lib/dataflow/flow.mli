(** Data flows: the directed, ordered, purpose-annotated arrows of the
    data-flow diagram (paper §II-A, Fig. 1).

    The endpoint pattern of a flow determines the privacy action the flow
    denotes (paper §II-B extraction rules); [action_kind] implements that
    classification. *)

type node =
  | User  (** The data subject whose privacy is modelled. *)
  | Actor of string  (** Actor id. *)
  | Store of string  (** Datastore id. *)

type action_kind = Collect | Disclose | Create | Anon | Read

type t = {
  order : int;  (** Position in the service's intended execution sequence. *)
  src : node;
  dst : node;
  fields : Field.t list;
  purpose : string;
}

val make :
  order:int -> src:node -> dst:node -> fields:Field.t list -> purpose:string -> t
(** @raise Invalid_argument on a negative order, empty field list, duplicate
    fields, or an endpoint pattern with no action (flows into [User],
    store-to-store flows, user-to-store flows, self-loops). *)

val classify : store_kind:(string -> Datastore.kind) -> t -> action_kind
(** The §II-B extraction rule for this flow. [store_kind] resolves a
    datastore id to its kind (an actor-to-store flow is [Create] for a
    plain store and [Anon] for an anonymised one). *)

val node_name : node -> string
val equal_node : node -> node -> bool
val pp_node : Format.formatter -> node -> unit
val pp : Format.formatter -> t -> unit
