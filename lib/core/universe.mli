(** The indexed variable universe of one model: a validated diagram plus
    its access-control policy, with dense integer indices for actors,
    fields, datastores and flows. Privacy-state variables live in bitsets
    indexed by [var]; paper §II-B: "each state must be labelled with
    2 * |actors| * |fields| Boolean state variables". *)

open Mdp_dataflow

type t

val make : Diagram.t -> Mdp_policy.Policy.t -> t
(** @raise Invalid_argument when the policy does not validate against the
    diagram. *)

val diagram : t -> Diagram.t
val policy : t -> Mdp_policy.Policy.t
val with_policy : t -> Mdp_policy.Policy.t -> t
(** Same diagram and indices, different policy (the §IV-A edit loop). *)

val nactors : t -> int
val nfields : t -> int
val nstores : t -> int
val nflows : t -> int
val nvars : t -> int
(** [nactors * nfields]: the count the paper's 2·5·6 = 60 example refers
    to (each var existing in a [has] and a [could] copy). *)

val actor_index : t -> string -> int
(** @raise Not_found on unknown ids. Same for the others. *)

val actor_name : t -> int -> string
val field_index : t -> Field.t -> int
val field_at : t -> int -> Field.t
val store_index : t -> string -> int
val store_name : t -> int -> string
val store_at : t -> int -> Datastore.t
val flow_at : t -> int -> Mdp_dataflow.Service.t * Flow.t
val var : t -> actor:int -> field:int -> int
(** Index into [has]/[could] bitsets. *)

val var_actor : t -> int -> int
val var_field : t -> int -> int

val readers : t -> store:int -> field:int -> int list
(** Actor indices allowed to [Read] the field in the store, precomputed
    from the policy. *)

val deleters : t -> store:int -> int list
(** Actors allowed to [Delete] at least one field of the store. *)

val readable_by : t -> actor:int -> store:int -> int list
(** Field indices of the store's schema fields the actor may read. *)

val readable_bits : t -> actor:int -> store:int -> Mdp_prelude.Bitset.t
(** The same permission row as a bitset over field indices — the
    generator intersects it with store contents instead of querying
    [Policy.allows] per state. Treat as read-only; it is shared. *)

val readable_anywhere : t -> actor:int -> Mdp_prelude.Bitset.t
(** Union of {!readable_bits} over all stores: bit [f] set iff the
    actor may read field [f] from at least one datastore. This is the
    store-independent access question of §III-B ("any read route to
    the raw field removes the inference risk"). Treat as read-only. *)
