(** Services: named, purpose-driven processes, each a set of ordered data
    flows (paper Fig. 1 shows two: a Medical Service and a Medical Research
    Service). A user agrees (or not) to each service independently; that
    agreement drives the allowed/non-allowed actor split of §III-A. *)

type t = { id : string; flows : Flow.t list }

val make : id:string -> flows:Flow.t list -> t
(** Flows are sorted by [order]. @raise Invalid_argument on an empty id,
    no flows, or duplicate orders. *)

val actors : t -> string list
(** Ids of actors appearing as flow endpoints, deduplicated. *)

val flow_with_order : t -> int -> Flow.t option
val pp : Format.formatter -> t -> unit
