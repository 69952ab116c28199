(** Imperative convenience layer for assembling diagrams from strings.

    Declare actors and stores first, then flows: endpoint strings resolve
    to [User] (the literal ["User"]), a declared store id, or otherwise an
    actor id. Field strings go through {!Field.of_name}, so ["Weight~anon"]
    denotes the pseudonymised variant. Flow order within a service is
    assigned by declaration sequence (starting at 1) unless given. *)

type t

val create : unit -> t
val actor : t -> ?roles:string list -> string -> unit
val plain_store : t -> string -> schemas:(string * string list) list -> unit
val anon_store : t -> string -> schemas:(string * string list) list -> unit
val flow :
  t ->
  service:string ->
  ?order:int ->
  ?purpose:string ->
  ?line:int ->
  src:string ->
  dst:string ->
  string list ->
  unit
(** [flow t ~service ~src ~dst fields]. Default purpose is the service id;
    [line] locates the flow in its source text for {!build}'s errors. *)

val build : t -> (Diagram.t, string list) result
(** Invalid flows (no or duplicate fields, an endpoint pattern that is no
    privacy action, a duplicate order within a service) are reported as
    errors, never raised. *)

val build_exn : t -> Diagram.t
