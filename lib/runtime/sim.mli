(** Discrete-event simulation of one data subject's passage through the
    deployed services: the substitute for the paper's real running system
    (DESIGN.md §5). Reproducible from a seed.

    The simulator walks each requested service's flows in order,
    interleaving concurrent services at random, and emits one event per
    flow. After every step, each configured snooper may — with the given
    probability — opportunistically read whatever permitted fields
    currently sit in its target store that it has not seen yet (the
    §III-A "accidental access" scenario made concrete). The emitted trace
    is raw requests: enforcement happens downstream in {!Enforce} /
    {!Monitor}. *)

type snooper = { actor : string; store : string; probability : float }

type config = {
  seed : int;
  services : string list;  (** Executed once each, randomly interleaved. *)
  snoopers : snooper list;
}

val run : Mdp_core.Universe.t -> config -> (Event.t list, string) result
(** [Error] names the service ids absent from the universe's diagram,
    or else the first snooper whose actor or datastore is absent or
    whose probability is not in \[0,1\] (NaN included). *)

val run_exn : Mdp_core.Universe.t -> config -> Event.t list
(** Convenience for callers with statically-known service ids.
    @raise Invalid_argument on a config {!run} rejects. *)
