(** Policy-enforcement point (PEP) of the simulated service: every
    store-touching event is checked against the access policy before it
    takes effect, exactly as the generator's [enforce_policy] mode models
    it. *)

type decision =
  | Allowed of Event.t
      (** Possibly narrowed: a read/create delivering only the permitted
          subset of the requested fields. *)
  | Denied of string  (** No requested field was permitted. *)

val decide : Mdp_core.Universe.t -> Event.t -> decision
(** [Collect]/[Disclose] events touch no store and pass through
    unchanged. [Read]/[Create]/[Anon]/[Delete] need the matching
    permission per field ([Anon] is checked on the anon variants it
    writes); events naming no store are denied. *)
