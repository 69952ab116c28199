(** A user's privacy state (paper §II-B, Fig. 2): for every (actor, field)
    pair, two Booleans — whether the actor *has* identified the field and
    whether it *could*. Values are immutable; transitions build fresh
    states. *)

open Mdp_dataflow
open Mdp_prelude

type t = { has : Bitset.t; could : Bitset.t }

val absolute : Universe.t -> t
(** The absolute privacy state: every variable false (§III-A measures
    impact "relative to the absolute privacy state"). *)

val equal : t -> t -> bool
val hash : t -> int

val has : Universe.t -> t -> actor:string -> field:Field.t -> bool
val could : Universe.t -> t -> actor:string -> field:Field.t -> bool
val has_i : t -> int -> bool
(** By variable index. *)

val could_i : t -> int -> bool

val pp_table : Universe.t -> Format.formatter -> t -> unit
(** The Fig. 2 state-variable table: one row per actor, one column pair
    (has/could) per field. *)
