(** Cone-scoped what-if answers (region-granular what-if).

    A pure ACL revocation only {e shrinks} the generated model:
    deny-overrides means [Policy.allows] flips true->false, effective
    flow fields shrink, fully denied flows drop, and potential-read
    field sets shrink — no transition appears in the edited model at a
    previously explored state whose old successor row lacked one. The
    edited row of every old state is therefore a pointwise substitution
    of the old row, and every state that needs one carries an outgoing
    transition of an affected store class — i.e. it is in that class's
    cone. {!index} derives every class's cone from the old LTS's edge
    rows once per base, classifying each interned label once with
    [Generate.store_classifier].

    {!make_patch} turns the compiled-input comparison the edit was
    classified by ({!Generate.policy_changes}) into a substitution
    recipe; {!walk} answers a what-if candidate from the reachable
    findable-label set, usually without building an LTS. Exact
    re-exploration of an edited model is a cold [Generate.run]. *)

type patch
(** An eligible edit's substitution recipe: per-flow substitutes/drops,
    the fields each shrunk (actor, store) readable pair lost, and the
    affected store classes. *)

val make_patch : Generate.options -> Generate.policy_changes -> patch option
(** The recipe for the compared edit, read off the comparison without
    compiling either universe again. [None] when the edit is not a
    cone-eligible shrink: potential deletes on, model too wide for the
    word-packed read path, a changed flow whose guard or prereqs moved
    (enabledness could differ outside the cones), a flow or readable
    field {e added}, or an affected flow without a store class. *)

type index
(** What every walk over one base LTS shares, built once by {!index}:
    the interned labels, one cone bitmap per store class (the states
    with an outgoing edge on that store), the root's store and has
    fields as words, and — unless the LTS spills — its edge rows as
    flat arrays. Immutable once built, so walks on several domains may
    share it. *)

val index : Universe.t -> Plts.t -> index
(** One row pass over the LTS explored from the universe (the base of a
    sweep). *)

val walk : index -> patch -> Action.t list option
(** The timed what-if path: the distinct findable (read) labels reachable in the edited model, as raw LTS labels. For a
    Read/Write ACL edit a finding's level is a pure function of its
    label, so these determine the edited report's finding signatures
    and levels. An arithmetic walk over the indexed base rows answers
    without building an LTS; when it declines (a region or state count
    wider than a word, a growing substitution) the labels come from
    {!cold_labels} under the patch's options, counted under
    [whatif/cone_walk_declined]. Each walk allocates only its own
    per-edit scratch (region words, a visited set, queues) and reads
    the index, so walks over one index may run concurrently. [None]
    when the edited model exceeds [max_states] — callers fall back to a
    full rerun. *)

val cold_labels : Generate.options -> Universe.t -> Action.t list
(** The distinct findable labels of a cold exploration of the universe:
    every label an exploration interns sits on a transition.
    @raise Mdp_lts.Lts.Too_many_states past [max_states]. *)
