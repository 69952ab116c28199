(** Distributed deployment of the modelled service.

    The paper's subject is *distributed* data services: actors and
    datastores live on different nodes, and a data flow between two nodes
    is a network transfer of personal data. A deployment assigns every
    actor and datastore to a named node in a region; the analysis lists
    the transfers the model can perform and flags those that cross a
    region boundary carrying sensitive data — the
    cross-jurisdiction-transfer concern of data-protection regimes. *)

type node = { id : string; region : string }

type t

val create :
  nodes:node list ->
  actors:(string * string) list ->
  stores:(string * string) list ->
  Mdp_core.Universe.t ->
  (t, string list) result
(** [actors]/[stores] map ids to node ids. Every actor and datastore of
    the universe's diagram must be placed, on a declared node; the
    subject ("User") is implicitly external to all regions. *)

val node_of_actor : t -> string -> node
val node_of_store : t -> string -> node

type transfer = {
  action : Mdp_core.Action.t;
  from_node : node option;  (** [None]: the data subject's device. *)
  to_node : node;
  cross_region : bool;
}

val transfers : t -> Mdp_core.Plts.t -> transfer list
(** One entry per distinct LTS transition label that moves data between
    nodes (collect: subject->actor; disclose: actor->actor; create/anon:
    actor->store; read: store->actor). Same-node actions are omitted;
    collects always appear (device -> service). *)

val risky_transfers :
  t -> Mdp_core.Plts.t -> Mdp_core.User_profile.t -> transfer list
(** Cross-region transfers whose fields include one the profile rates
    sensitive (σ > 0) — the transfers a data-protection review should
    look at first. *)

val pp_transfer : Format.formatter -> transfer -> unit
