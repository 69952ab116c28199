(** Fixed-capacity mutable bitsets.

    A bitset is created with a fixed [length]; all operations on indices
    outside [0, length) raise [Invalid_argument]. Binary operations require
    operands of equal length. *)

type t

val create : int -> t
(** [create n] is a bitset of capacity [n] with all bits clear. *)

val length : t -> int
(** Capacity given at creation. *)

val get : t -> int -> bool
val set : t -> int -> unit

val equal : t -> t -> bool
val hash : t -> int

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets every bit of [src] in [dst]. *)

val subset : t -> t -> bool
(** [subset a b] is true iff every bit set in [a] is set in [b]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over set-bit indices in increasing order. Word-skipping: cost
    is proportional to the number of words plus the number of set bits,
    not to the capacity. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t

val bits_per_word : int
(** Number of payload bits per machine word (63). *)

val extract : t -> pos:int -> len:int -> int
(** [extract t ~pos ~len] is bits [pos .. pos+len-1] of [t] packed into
    an int, bit [pos] lowest. [len] must be at most [bits_per_word]; the
    range must lie within the capacity. *)

(** {1 Raw word access}

    The packed LTS engine stores states as bare payload words in a flat
    arena; these three functions are the boundary between bitsets and
    that representation. Words carry {!bits_per_word} payload bits each,
    lowest index first. *)

val word_count : t -> int
(** Number of payload words backing the bitset (at least 1). *)

val blit_words : t -> int array -> int -> int
(** [blit_words t dst off] copies the payload words into [dst] starting
    at [off]; returns the offset one past the last word written. *)

val of_words : length:int -> int array -> int -> t
(** [of_words ~length src off] rebuilds a bitset of capacity [length]
    from the words at [src.(off ..)] — the inverse of {!blit_words} for
    a bitset of that capacity. The words must respect the capacity (no
    bits at or above [length]); words written by {!blit_words} do. *)
