(** List helpers missing from the standard library. *)

val group_by : key:('a -> 'b) -> 'a list -> ('b * 'a list) list
(** Groups preserve first-appearance order of keys and element order within
    a group. Keys are compared with polymorphic equality. *)

val dedup : 'a list -> 'a list
(** Keep the first occurrence of each element (polymorphic equality),
    preserving order. *)

val sum_by : ('a -> int) -> 'a list -> int
val sum_byf : ('a -> float) -> 'a list -> float
val max_byf : ('a -> float) -> 'a list -> float
(** Maximum of [f] over the list; 0.0 on the empty list. *)

val count : ('a -> bool) -> 'a list -> int

val index_of : ('a -> bool) -> 'a list -> int option
val find_duplicate : ('a -> 'b) -> 'a list -> 'b option
(** First key (by [f]) appearing more than once, if any. *)
