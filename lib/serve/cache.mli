(** Bounded, mutex-guarded LRU cache for compiled analysis artifacts
    and rendered results.

    The daemon's whole performance story is "compile once, answer from
    cache": a warm hit skips DSL parsing, LTS exploration and risk-plan
    compilation. The cache is shared by every worker domain, so all
    operations take an internal lock — entries must therefore be
    treated as immutable by readers (the engine wraps an artifact's one
    lazily built part, its compiled risk plan, in its own per-entry
    lock).

    Eviction is least-recently-used with a hard entry cap. Evicted
    entries can optionally be retained in a second-chance [stale] store
    (also LRU-bounded) that {!find_stale} consults — that is what lets
    the engine degrade gracefully under overload by serving a
    previously-computed result flagged as stale instead of shedding the
    request outright.

    Hit/miss/eviction counts are kept per instance and mirrored to
    {!Mdp_obs.Metrics} counters [<name>/hits], [<name>/misses],
    [<name>/evictions] when metrics are enabled. *)

type 'v t

val create : ?stale_cap:int -> name:string -> cap:int -> unit -> 'v t
(** [cap] is the live-entry bound (clamped to >= 1); [stale_cap]
    (default 0: disabled) bounds the evicted-entry store. [name]
    prefixes the exported metric counters. *)

val find : 'v t -> string -> 'v option
(** Refreshes recency on hit. *)

val put : 'v t -> string -> 'v -> unit
(** Insert or replace; may evict the least-recently-used entry (into
    the stale store when enabled). *)

val find_stale : 'v t -> string -> 'v option
(** Look for a previously-evicted value. Never consulted on the fast
    path — only when degrading under overload. Checks live entries
    first, so a [Some] is best-effort "the freshest we ever had". A
    live answer counts (and refreshes recency) as a plain hit; a
    stale-store answer counts as a {e stale hit}, kept separate in
    {!stats} so degraded serving never inflates the real hit ratio. *)

type stats = {
  len : int;
  cap : int;
  hits : int;
  misses : int;
  stale_hits : int;  (** Served from the stale store by {!find_stale}. *)
  evictions : int;
  stale_len : int;
}

val stats : 'v t -> stats
val stats_json : 'v t -> Mdp_prelude.Json.t
