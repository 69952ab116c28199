(** Generation-time configurations.

    The paper's LTS states are privacy states; generating the reachable
    system additionally needs the operational context — which fields each
    datastore currently holds and which flows have executed. A [Config.t]
    bundles all three; the generator hash-conses its packed words (see
    {!blit_words}), and analyses project out the privacy state. *)

open Mdp_prelude

type t = {
  privacy : Privacy_state.t;
  stores : Bitset.t array;  (** Per store index: field indices present. *)
  executed : Bitset.t;  (** Flow indices already run. *)
}

val initial : Universe.t -> t
(** Absolute privacy, empty stores, no flows executed. *)

val equal : t -> t -> bool
val hash : t -> int

(** {1 Packed-word codec}

    A config is fully determined by the payload words of its bitsets;
    the packed LTS engine stores only those words. Layout: [privacy.has],
    [privacy.could], each store in index order, [executed]. *)

val nwords : t -> int
(** Total payload word count — a constant for all configs of one
    universe. *)

val blit_words : t -> int array -> int -> int
(** Write the words into the buffer at the offset; returns the offset
    past the last word written. *)

val of_words : template:t -> int array -> int -> t
(** Rebuild a config from words previously written by {!blit_words}.
    [template] supplies the shape (bitset capacities, store count) and
    must come from the same universe. *)

val executed : t -> flow:int -> bool
