(** Multi-subject monitoring.

    The privacy LTS is per data subject (paper §III: "there is an
    instance for each user"); a deployed service interleaves many
    subjects' events. A fleet lazily maintains one {!Monitor} per
    subject, routing each event by subject identifier, and aggregates the
    alerts raised across the population.

    For runs over faulty streams (see {!Faults}) the fleet also offers a
    per-subject health summary and whole-fleet checkpoint/restore, so a
    crashed monitoring node resumes from its last checkpoint instead of
    replaying the full trace. *)

type t

val create :
  ?min_level:Mdp_core.Level.t ->
  ?resync_depth:int ->
  annotate:(Mdp_core.Action.t -> Mdp_core.Action.t) ->
  Mdp_core.Universe.t ->
  Mdp_core.Plts.t ->
  t
(** All subjects share the LTS and the [annotate] map; monitor state is
    per-subject. Every monitor the fleet creates is a {!Monitor.fresh}
    copy of one {!Monitor.create} with these arguments, so [annotate]
    runs once per fleet, not once per subject. *)

val observe : t -> subject:string -> Event.t -> Monitor.alert list
val subjects : t -> string list
(** In first-seen order. *)

val state_of : t -> subject:string -> Mdp_core.Plts.state_id option
(** [None] for a subject never observed. *)

val monitor_stats : t -> subject:string -> Monitor.stats option

val alerts_for : t -> subject:string -> Monitor.alert list
(** In observation order. *)

(** {1 Health} *)

type health =
  | Healthy  (** Every event placed first try; nothing absorbed. *)
  | Degraded of string
      (** Tracking, but the stream needed repair (resyncs, duplicates,
          late arrivals or isolated dead letters); the payload says
          why. *)
  | Lost
      (** The last several events could not be placed at all — the
          monitor no longer knows where the subject is. *)

val health : t -> subject:string -> health option
val health_summary : t -> (string * health) list
(** Every subject with its health, in first-seen order. *)

(** {1 Checkpointing} *)

val checkpoint : t -> Mdp_prelude.Json.t
(** Serialises every subject's monitor (see {!Monitor.to_json}) plus the
    fleet configuration. Alerts already reported are not replayed: a
    restored fleet's {!alerts_for} lists post-restore alerts only. *)

val restore :
  annotate:(Mdp_core.Action.t -> Mdp_core.Action.t) ->
  Mdp_core.Universe.t -> Mdp_core.Plts.t -> Mdp_prelude.Json.t ->
  (t, string) result
(** Rebuild a fleet from {!checkpoint} output against an LTS generated
    from the same model with the same options. *)
