(** Fault injection for the runtime layer.

    A deployed distributed data service does not deliver the clean,
    lossless, strictly-ordered event stream {!Sim} produces: observation
    points drop events, network retries duplicate them, concurrent nodes
    reorder and delay them, and whole nodes crash. This module perturbs
    a trace (reproducibly from a PRNG seed) and the availability state of
    a {!Deployment} in those ways, so the resilience of the monitoring
    pipeline (Sim -> Faults -> Enforce -> {!Monitor}/{!Fleet}) can be
    exercised and measured. *)

(** {1 Trace perturbation} *)

type profile = {
  drop : float;  (** Per-event probability the event is lost. *)
  duplicate : float;  (** Per-event probability a copy arrives later. *)
  reorder : float;  (** Per-event probability of swapping with its successor. *)
  delay : float;  (** Per-event probability of late delivery. *)
  max_delay : int;  (** Upper bound on late delivery, in stream positions. *)
}

val uniform : float -> profile
(** All four probabilities set to the given rate; [max_delay] is 3. *)

type 'a generic_fault =
  | Dropped of 'a
  | Duplicated of 'a
  | Reordered of 'a  (** Swapped with the next surviving element. *)
  | Delayed of 'a * int  (** Displaced this many positions later. *)

type fault = Event.t generic_fault

type 'a generic_injection = {
  delivered : 'a list;  (** The perturbed stream, in arrival order. *)
  faults : 'a generic_fault list;
      (** Ground truth of what was injected, in decision order — for
          statistics and test oracles. *)
}

type injection = Event.t generic_injection

val inject : seed:int -> profile -> Event.t list -> injection
(** Deterministic for a given [seed], [profile] and input trace.
    Timestamps are left untouched: a delayed or reordered event arrives
    out of order carrying its original (now stale) timestamp, exactly as
    a real collector would see it. *)

val inject_any : seed:int -> profile -> 'a list -> 'a generic_injection
(** {!inject} for arbitrary element types — the serve soak harness
    perturbs raw request lines with the same machinery (and the same
    seed discipline) the monitoring pipeline applies to event
    traces. *)

type fault_stats = {
  dropped : int;
  duplicated : int;
  reordered : int;
  delayed : int;
}

val stats : fault list -> fault_stats
val pp_stats : Format.formatter -> fault_stats -> unit

(** {1 Deployment chaos}

    Mutable availability state layered over a {!Deployment}: nodes crash
    for a number of ticks, and logical time advances tick by tick. A
    crash expires on its own as the clock advances — that is what the
    {!with_backoff} retry loop waits for. *)

type chaos

val chaos : Deployment.t -> chaos
val tick : chaos -> unit
(** Advance the clock one tick; crashes whose duration has expired are
    lifted. *)

val crash_node : for_ticks:int -> chaos -> string -> unit
(** Mark a node down for [for_ticks] ticks (at least one). *)

val node_up : chaos -> string -> bool
(** Unknown node ids are reported up: chaos only tracks declared
    outages. *)

val sync_stores : chaos -> Store_sim.t -> unit
(** Mirror node state into a {!Store_sim}: every placed datastore is
    marked available iff its hosting node is up. Call after
    {!crash_node}/{!tick} so simulated writes fail retriably while the
    node is down. *)

(** {1 Bounded exponential backoff} *)

type retry_outcome = {
  attempts : int;
  waited : int;  (** Total ticks spent waiting between attempts. *)
}

val with_backoff :
  chaos -> (unit -> ('a, string) result) -> ('a, string) result * retry_outcome
(** Run the operation; on a retriable error (see {!Store_sim.is_retriable})
    wait [min 8 (2^(attempt-1))] ticks — advancing the chaos clock, so
    timed outages heal — and try again, up to 6 attempts. A
    non-retriable error is returned immediately. *)
