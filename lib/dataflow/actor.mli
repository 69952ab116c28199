(** Actors: individuals or role types that can identify a user's personal
    data (paper §II-B). An actor carries the RBAC roles it holds; role
    semantics live in [Mdp_policy]. *)

type t = { id : string; roles : string list }

val make : ?roles:string list -> string -> t
(** @raise Invalid_argument on an empty id or duplicate roles. *)

val pp : Format.formatter -> t -> unit
