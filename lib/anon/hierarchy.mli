(** Generalisation hierarchies for quasi-identifiers.

    A hierarchy gives, per generalisation level, a coarsening of raw
    values. Level 0 is the identity; the level after the last defined one
    is full suppression. Levels bin numeric values into aligned intervals
    of increasing width. *)

type t

val numeric : widths:float list -> unit -> t
(** [numeric ~widths:[5.; 20.] ()]: level 1 bins into width-5 intervals
    aligned at 0, level 2 into width-20 intervals, level 3 suppresses.
    Widths must be positive and strictly increasing. *)

val nlevels : t -> int
(** Number of levels including level 0 and excluding the implicit
    suppression level; [generalise] accepts levels in
    [0, nlevels t] (the top one suppressing). *)

val generalise : t -> level:int -> Value.t -> Value.t
(** @raise Invalid_argument on a level outside [0, nlevels]. Values the
    hierarchy cannot coarsen (strings, intervals) become [Suppressed]. *)
