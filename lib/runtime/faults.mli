(** Fault injection for the runtime layer.

    A deployed distributed data service does not deliver the clean,
    lossless, strictly-ordered event stream {!Sim} produces: observation
    points drop events, network retries duplicate them, and concurrent
    nodes reorder and delay them. This module perturbs a stream in those
    ways, reproducibly from a PRNG seed, so the resilience of a consumer
    — a {!Monitor} created with [~resync_depth], or the serve daemon's
    soak harness — can be exercised and measured. *)

type profile = {
  drop : float;  (** Per-element probability the element is lost. *)
  duplicate : float;  (** Per-element probability a copy arrives later. *)
  reorder : float;  (** Per-element probability of swapping with its successor. *)
  delay : float;  (** Per-element probability of late delivery. *)
  max_delay : int;  (** Upper bound on late delivery, in stream positions. *)
}

val uniform : float -> profile
(** All four probabilities set to the given rate; [max_delay] is 3. *)

type 'a fault =
  | Dropped of 'a
  | Duplicated of 'a
  | Reordered of 'a  (** Swapped with the next surviving element. *)
  | Delayed of 'a * int  (** Displaced this many positions later. *)

type 'a injection = {
  delivered : 'a list;  (** The perturbed stream, in arrival order. *)
  faults : 'a fault list;
      (** Ground truth of what was injected, in decision order — for
          test oracles. *)
}

val inject_any : seed:int -> profile -> 'a list -> 'a injection
(** Deterministic for a given [seed], [profile] and input stream, for
    any element type: event traces and raw serve request lines alike.
    Event timestamps are left untouched: a delayed or reordered event
    arrives out of order carrying its original (now stale) timestamp,
    exactly as a real collector would see it. *)
