(** Observable runtime events of a deployed data service: one data action
    on one subject's personal data. Traces of these are what the paper's
    "analysis of running systems with real users" consumes. *)

open Mdp_dataflow

type t = {
  time : int;  (** Logical timestamp, strictly increasing within a trace. *)
  kind : Mdp_core.Action.kind;
  actor : string;  (** Performing actor (the receiver for [Collect]). *)
  fields : Field.t list;
  store : string option;  (** For [Create]/[Anon]/[Read]/[Delete]. *)
  service : string option;  (** Service context, [None] for ad-hoc access. *)
  counterparty : string option;  (** Receiving actor of a [Disclose]. *)
}

val make :
  time:int ->
  kind:Mdp_core.Action.kind ->
  actor:string ->
  fields:Field.t list ->
  ?store:string ->
  ?service:string ->
  ?counterparty:string ->
  unit ->
  t

val fields_equal : Field.t list -> Field.t list -> bool
(** Set equality. *)

val kind_to_string : Mdp_core.Action.kind -> string
val kind_of_string : string -> Mdp_core.Action.kind option

val pp : Format.formatter -> t -> unit

val to_line : t -> string
(** One-line serialisation, e.g.
    [17 read Administrator Name,Diagnosis store=EHR service=-]. *)

val of_line : string -> (t, string) result
(** Inverse of [to_line]; [Error] on a malformed line, never an
    exception. *)
