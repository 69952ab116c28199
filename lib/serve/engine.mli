(** The daemon's analysis engine: one object owning the whole
    compile -> cache -> evaluate pipeline behind a single [handle]
    entry point, shared by every worker domain.

    Three caches sit in front of the pipeline, all LRU-bounded
    ({!Cache}) and keyed by content hashes so a model edit can never
    serve a stale artifact:

    - {b artifacts} — (universe, generated LTS, consistency gaps,
      lazily compiled {!Mdp_core.Risk_plan}) per (model hash,
      max_states). Generation is the expensive phase; a warm artifact
      turns a risk query into an array walk.
    - {b population classes} — {!Mdp_core.Population.classes} output
      per (model hash, population spec).
    - {b results} — fully rendered response bodies per (model hash,
      request essence). A warm hit answers without touching the model
      at all, and evicted bodies are retained in a stale store that
      {!stale_response} serves (flagged [stale]) when the daemon sheds
      load.

    The LTS is never written after exploration, and a compiled plan is
    immutable; the plan is compiled on first use, into the artifact's
    one mutable field. Each artifact carries a lock that guards that
    compilation and serialises plan use, population sweeps included.

    [whatif] requests run {!Mdp_core.Analysis.run_incremental} against
    the cached artifact under that same lock: edits the classifier
    proves LTS-preserving reuse the artifact's LTS and compiled plan
    (re-evaluation only), and result keys canonicalise the edit specs
    so equivalent edit spellings share a cache entry. A full fallback
    (LTS-invalidating edit) explores a fresh LTS without touching the
    cached artifact; it honours the state guard and the request's
    deadline ([cancel]).

    Failures are structured, never escaping exceptions: state-limit
    trips and deadline expiries also feed the per-model-hash circuit
    {!Breaker}, so a model that keeps blowing its budget fast-fails
    subsequent requests for a cooldown instead of burning workers. *)

module Json = Mdp_prelude.Json

type config = {
  artifact_cap : int;  (** Compiled-artifact LRU entries. *)
  result_cap : int;  (** Rendered-result LRU entries. *)
  stale_cap : int;  (** Evicted results kept for degraded serving. *)
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  default_deadline_ms : int option;
      (** Budget applied when a request names none; [None] = unlimited. *)
  max_states : int;
      (** Ceiling clamped onto per-request [max_states]. *)
  mem_budget : int option;
      (** Resident-byte budget for each compilation's packed LTS: above
          it the engine spills sealed arena chunks and dedup tables to
          disk and completes bounded by disk, not RAM (state numbering
          unchanged). [None] = never spill. [state_limit] error bodies
          report resident/spill occupancy when a budget is set. *)
}

val default_config : config
(** 8 artifacts, 64 results (32 stale), breaker 3 / 5000 ms,
    no default deadline, 200_000-state ceiling. *)

type t

val create : ?config:config -> unit -> t

val handle :
  t -> ?cancel:Mdp_obs.Cancel.t -> ?admitted_ns:int ->
  Protocol.request -> Protocol.response
(** Synchronously answer one request; never raises. [cancel] is the
    request's token (polled throughout exploration and population
    sweeps); [admitted_ns] backdates [elapsed_ms] to admission time so
    queueing delay is visible to the client. [Cancel_request] and
    [Shutdown] need server state and answer with an error here. *)

val stale_response : t -> Protocol.request -> Protocol.response option
(** Degraded path for an analysis request with [allow_stale]: a
    previously computed (possibly evicted) result for the same essence,
    flagged [cached] and [stale]. [None] when nothing applicable was
    ever computed — the caller then sheds with [Overloaded]. *)

val deadline_ms_for : t -> Protocol.analysis -> int option
(** The effective budget: the request's, else the configured default. *)

val health_json : t -> Json.t
(** Cache/breaker snapshot (the server adds queue depth). *)
