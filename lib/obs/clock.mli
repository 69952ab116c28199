(** Monotonic time source.

    All timing in the project goes through this module.  The clock is
    [CLOCK_MONOTONIC]: readings only ever move forward, independent of
    NTP adjustments, so interval arithmetic is always valid. *)

val now_ns : unit -> int
(** Current monotonic reading in nanoseconds.  Only differences between
    two readings are meaningful; the epoch is unspecified (boot time on
    Linux). *)

val ns_to_s : int -> float
(** Convert a nanosecond interval to seconds. *)

val elapsed_s : int -> float
(** [elapsed_s t0] is the seconds elapsed since the reading [t0]. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed wall time in seconds, measured monotonically. *)
