(** Runtime privacy monitor (paper §I: the models also "monitor the
    privacy risks during the lifetime of the service").

    One monitor tracks one data subject's journey through the generated
    LTS, reading each transition's risk through the [annotate] map it is
    created with. Each observed event is first put through the
    {!Enforce} PEP, then matched against the outgoing transitions of the
    current LTS state:

    - a matching transition whose annotated label carries a risk at or
      above [min_level] raises a {!Risky} alert (and the state advances);
    - any other matching transition advances silently;
    - a denied event raises {!Denied} (plus {!Off_model} when the attempt
      was not even predicted by the model) and does not advance;
    - an event matching no transition is handled by the resilience layer
      below.

    {2 Resilience}

    A real distributed service delivers an imperfect stream: events are
    dropped, duplicated, reordered and delayed (see {!Faults}). With
    [resync_depth > 0] the monitor degrades gracefully instead of wedging
    on the first gap:

    - an unmatched event triggers a bounded forward search of the LTS for
      the nearest state from which it {e does} match; on success the
      monitor re-aligns and raises {!Resynced} with the number of
      transitions it had to skip — the bridged gap;
    - the skipped transitions are remembered, so a skipped event that
      later arrives out of order (a delay or reorder rather than a drop)
      is absorbed silently;
    - an exact duplicate of an already-observed event is absorbed
      silently;
    - an event that cannot be placed at all goes to the dead-letter queue
      and raises {!Off_model}.

    {!stats} exposes the counters and the dead letters. *)

type alert =
  | Denied of Event.t * string
  | Risky of Event.t * Mdp_core.Action.risk
  | Off_model of Event.t
  | Resynced of Event.t * int
      (** Re-aligned after a gap, skipping this many transitions. *)

type t

val create :
  ?min_level:Mdp_core.Level.t ->
  ?resync_depth:int ->
  ?dead_letter_cap:int ->
  annotate:(Mdp_core.Action.t -> Mdp_core.Action.t) ->
  Mdp_core.Universe.t ->
  Mdp_core.Plts.t ->
  t
(** [min_level] (default [Low]) is the smallest disclosure-risk level that
    raises [Risky]. [resync_depth] (default 0: off) bounds how many
    transitions a resynchronisation may skip. [dead_letter_cap]
    (default 256) bounds the dead-letter queue: when full, the oldest
    letter is shed (counted in [stats.dead_dropped]) to admit the new
    one, so a monitor that has lost track in a long-lived run holds the
    newest evidence at constant memory instead of growing without
    limit; 0 keeps no letters at all (every dead event only counts).
    [annotate] maps an LTS label to its risk-annotated copy: a
    profile's {!Mdp_core.Risk_plan.annotate} ({!Mdp_core.Analysis.annotate}
    for an analysis), or [Fun.id] to raise no {!Risky} alerts. It is
    applied once per distinct LTS label, here. §III-B
    risk-transitions are not part of the LTS, so an inferred read of a
    raw field is never a modelled event. *)

val current_state : t -> Mdp_core.Plts.state_id

val observe : t -> Event.t -> alert list
(** All alerts the event raises, in severity order — e.g. a denied event
    that is also off-model reports both. Absorbed duplicates and late
    arrivals raise none. *)

val run_trace : t -> Event.t list -> alert list
(** Observe a whole trace; alerts in event order. *)

type stats = {
  observed : int;  (** Events fed to {!observe}. *)
  placed : int;  (** Events that advanced the LTS state. *)
  duplicates : int;  (** Exact duplicates absorbed. *)
  late : int;  (** Out-of-order arrivals absorbed against skipped
                   transitions. *)
  resyncs : int;  (** Gaps bridged. *)
  skipped : int;  (** Transitions skipped across all resyncs. *)
  dead : Event.t list;
      (** Events the monitor could not place anywhere, in arrival
          order: the newest [dead_letter_cap] of them; older ones are
          shed (see {!create}). *)
  dead_dropped : int;  (** Dead letters shed to stay within the cap. *)
  consecutive_dead : int;  (** Current run of dead letters with nothing
                               placed in between — a high value means the
                               monitor has lost track entirely. *)
}

val stats : t -> stats

val pp_alert : Format.formatter -> alert -> unit
