(** Trace recording: serialise event streams for offline analysis
    (the paper's "analysis of running systems with real users" consumes
    recorded behaviour) and summarise them. *)

type t = Event.t list

val of_lines : string -> (t, string) result
(** Skips blank lines; fails on the first malformed one (with its line
    number) and on a timestamp that does not strictly increase. *)

type stats = {
  events : int;
  span : int;  (** Last timestamp minus first; 0 for traces under 2 events. *)
  by_kind : (Mdp_core.Action.kind * int) list;
  by_actor : (string * int) list;  (** First-appearance order. *)
  ad_hoc : int;  (** Events outside any service context. *)
}

val stats : t -> stats
(** Single pass over the trace. *)

val publish_metrics : ?prefix:string -> t -> unit
(** Record the trace's stats as metrics counters/histograms under
    [prefix] (default ["trace"]): [<prefix>/events], [<prefix>/ad_hoc],
    [<prefix>/span_ticks] and one [<prefix>/kind/<kind>] counter per
    event kind seen.  No-op while metrics are disabled. *)

val pp_stats : Format.formatter -> stats -> unit
