(** Automatic generation of the LTS privacy model (paper §II-B).

    Starting from the absolute privacy state with empty datastores, the
    generator explores every reachable configuration by firing:

    - {b flow actions} — each data-flow arrow, classified by the §II-B
      extraction rules ([collect]/[disclose]/[create]/[anon]/[read]),
      firing at most once and only when its source node holds the data it
      sends ("provided the start node has the correct data to flow") —
      except [create]/[anon] flows, which are authorship: the Doctor
      writes a Diagnosis it never collected, so store-writes need no
      prior possession and set the author's [has] bits;
    - {b potential reads} — policy-derived [read]s: any actor the ACL
      grants read access to fields currently in a store may read them even
      if no flow prescribes it (this is what surfaces §IV-A's
      Administrator risk);
    - {b potential deletes} (optional) — policy-derived [delete]s by actors
      holding the Delete permission, clearing the store and recomputing
      the "could identify" variables.

    State-variable semantics: a [collect]/[disclose]/[read] sets the
    receiving actor's [has] bits; a [create]/[anon] fills the store and
    sets the [could] bits of every actor the policy allows to read the
    created fields. *)

type ordering =
  | Strict
      (** A flow fires only after every lower-order flow of its service
          (the diagram's intended sequence). *)
  | Data_driven
      (** Any flow whose source holds the data may fire. *)

type options = {
  ordering : ordering;
  potential_reads : bool;
  granular_reads : bool;
      (** Potential reads fetch one field per transition instead of every
          readable field at once (the paper assumes "datastore interfaces
          that support querying and display of individual fields"). *)
  potential_deletes : bool;
  enforce_policy : bool;
      (** Model run-time enforcement at the datastore interface: [read]
          flows deliver only policy-permitted fields, [create]/[anon]
          flows persist only policy-permitted fields, and a fully denied
          flow is disabled. Off, the diagram executes as drawn even where
          the policy contradicts it (use {!Consistency.check} to surface
          the contradictions). *)
  services : string list option;
      (** Restrict generation to these services (e.g. Fig. 3 generates
          the Medical Service process alone). [None] = all. *)
  max_states : int;
  mem_budget : int option;
      (** Resident-byte budget for the explored LTS: above it, sealed
          arena chunks and dedup tables spill to disk and the
          exploration completes bounded by disk rather than RAM, with
          byte-identical state numbering (see
          {!Mdp_lts.Lts.S.explore}). [None] (the default) never
          spills. *)
  spill_dir : string option;
      (** Parent directory for the spill run directory; [None] = the
          system temp directory. *)
}

val default_options : options
(** [Strict], potential reads on (coarse), deletes off, all services,
    100_000-state guard. *)

val flow_only : options
(** No policy-derived transitions: exactly the diagram's flows (the Fig. 3
    rendering mode). *)

(** {1 Compiled-step internals}

    The pieces [run] assembles, exposed for the what-if paths:
    {!policy_changes} compares what two policies compile to, which
    decides whether an edit changes the LTS ({!Edit.classify}) and which
    emissions a cone-scoped answer must substitute ({!Regen}). *)

type source_guard =
  | Always
  | Actor_has of int list  (** privacy.has variable indices *)
  | Store_holds of int * int list  (** store index, field indices *)

type compiled_flow = {
  cf_index : int;
  cf_prereqs : Mdp_prelude.Bitset.t;
      (** flow indices that must have executed (Strict) *)
  cf_guard : source_guard;
  cf_action : Action.t;
  cf_has_vars : int list;  (** privacy.has bits the action sets *)
  cf_store_write : (int * int list) option;  (** store idx, field indices *)
  cf_could_vars : int list;  (** privacy.could bits set on creation *)
}

val compile : Universe.t -> options -> compiled_flow list
(** The flows in scope with their effective fields, in flow-index
    order: what exploration fires. *)

(** What a policy edit changes in the inputs exploration reads. *)
type policy_changes = {
  pc_u : Universe.t;  (** the edited universe *)
  pc_compiled_old : compiled_flow list;
      (** every compiled flow under the old policy, in flow-index order *)
  pc_flows : (compiled_flow option * compiled_flow option) list;
      (** the flows whose compiled form moved, in flow-index order, as
          (old, edited); [None] where the flow is fully denied *)
  pc_reads : (int * int * int list * int list) list;
      (** (actor, store, lost, gained): the readable fields that left or
          joined the pair's potential reads, among the fields a compiled
          flow writes into the store under either policy. Empty when
          potential reads are off. *)
}

type compiled_policy
(** The before side of {!policy_changes}: a universe with its flows
    compiled under some options, built once per base and read-only
    afterwards. *)

val compile_policy : Universe.t -> options -> compiled_policy

val policy_changes : compiled_policy -> u:Universe.t -> policy_changes option
(** The one decision of whether a policy edit changes the generated
    LTS, under the before side's options. [u] must share the before
    side's diagram. It compares exactly the policy-derived inputs the
    emitter reads, as bitsets at any field count: the compiled flows
    (effective fields, guards, could-readers); with potential reads,
    {!Universe.readable_bits} masked by the fields some compiled flow
    writes into the store (no other field ever reaches it); with
    potential deletes, {!Universe.deleters} and {!Universe.readers}
    under the same mask. [None]: the two universes
    explore to the same LTS, state for state and label for label. *)

val readable_rows : Universe.t -> options -> int array array option
(** Per-(actor, store) readable field sets as single words
    ([.(actor).(store)]), the view {!Regen}'s arithmetic walk works in;
    [None] when the model has more fields than a word holds or potential
    reads are off. *)

val read_action : Universe.t -> actor:int -> store:int -> int -> Action.t
(** The potential-read label for a packed fresh field set (bit [i] =
    field [i]) — exactly the label a cold run emits for that (actor,
    store, field set). Built afresh on every call. Exposed so {!Regen}'s
    arithmetic walk can name recomputed read groups without rebuilding
    configurations. *)

val store_classifier : Universe.t -> Action.t -> int
(** The store class of a transition label: the touched store's index,
    or -1 for store-less actions. {!Regen} classifies an explored LTS's
    interned labels with it to find the states an edit's affected
    stores can touch. *)

val run :
  ?options:options ->
  ?cancel:Mdp_obs.Cancel.t ->
  Universe.t ->
  Plts.t
(** Explore the universe's LTS (see {!Mdp_lts.Lts.Make.explore}).
    [cancel] aborts a runaway exploration cooperatively within 512
    expansions (forwarded to [Lts.explore]).

    @raise Mdp_obs.Cancel.Cancelled if [cancel] fires mid-run.
    @raise Mdp_lts.Lts.Too_many_states if [max_states] is exceeded. *)
