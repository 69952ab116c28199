(** Role-based access control: a role hierarchy in which a senior role
    inherits every permission granted to its junior roles (paper §II-A
    assumes "traditional access control lists and role-based access
    control"). *)

type t

val create : ?hierarchy:(string * string) list -> unit -> t
(** [hierarchy] lists [(senior, junior)] pairs.
    @raise Invalid_argument if the hierarchy has a cycle. *)

val empty : t
val juniors : t -> string -> string list
(** Transitive juniors of a role, excluding the role itself. *)

val effective_roles : t -> Mdp_dataflow.Actor.t -> string list
(** The actor's direct roles plus all transitive juniors, deduplicated:
    the roles whose ACL entries apply to the actor. *)

val holds_role : t -> Mdp_dataflow.Actor.t -> string -> bool
val hierarchy : t -> (string * string) list
(** The [(senior, junior)] pairs given at creation, in order. *)
