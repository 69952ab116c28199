(** Cone-scoped what-if answers (region-granular what-if).

    A pure ACL revocation only {e shrinks} the generated model:
    deny-overrides means [Policy.allows] flips true->false, effective
    flow fields shrink, fully denied flows drop, and potential-read
    field sets shrink — no transition appears in the edited model at a
    previously explored state whose old successor row lacked one. The
    edited row of every old state is therefore a pointwise substitution
    of the old row; only rows with an edge on an affected store (its
    cone) change, and the same arithmetic leaves every other row as it
    was. {!index} flattens the old LTS's edge rows and records every
    state's field holders once per base.

    {!make_patch} turns the compiled-input comparison the edit was
    classified by ({!Generate.policy_changes}) into a substitution
    recipe; {!walk} answers a what-if candidate from the reachable
    findable-label set, usually without building an LTS. Exact
    re-exploration of an edited model is a cold [Generate.run]. *)

type patch
(** An eligible edit's substitution recipe: per-flow substitutes/drops
    and the fields each shrunk (actor, store) readable pair lost. *)

type refusal =
  | Potential_deletes
  | Too_wide  (** more fields than the word-packed read path holds *)
  | Guard_moved  (** a changed flow's guard or prereqs moved *)
  | Flow_added
  | Read_gained  (** a readable field was added *)
  | Storeless_flow  (** an affected flow without a store class *)

val refusal_name : refusal -> string
(** [potential_deletes], [too_wide], [guard_moved], [flow_added],
    [read_gained] or [storeless_flow]. *)

val make_patch :
  Generate.options -> Generate.policy_changes -> (patch, refusal) result
(** The recipe for the compared edit, read off the comparison without
    compiling either universe again, or why the edit is not a
    cone-eligible shrink. *)

type index
(** What every walk over one base LTS shares, built once by {!index}:
    the interned labels, every state's holders of each field, and —
    unless the LTS spills — its edge rows as flat arrays. Immutable
    once built, so walks on several domains may share it. *)

val index : Generate.options -> Universe.t -> Plts.t -> index
(** One row pass over the LTS explored from the universe under the
    options (the base of a sweep). *)

val holders : index -> int array
(** State [q]'s holders of field [f] at [q * nfields + f]: bit [s] per
    store holding the field, bit [nstores + a] per actor that has it.
    Empty under potential deletes or with more stores and actors than a
    word has bits. *)

val walk : index -> patch -> Action.t list option
(** The timed what-if path: the distinct findable (read) labels reachable in the edited model, as raw LTS labels. For a
    Read/Write ACL edit a finding's level is a pure function of its
    label, so these determine the edited report's finding signatures
    and levels. An arithmetic walk over the indexed base rows answers
    without building an LTS; when it declines (a region or state count
    wider than a word, a growing substitution) the labels come from
    {!cold_labels} under the patch's options, counted under
    [whatif/cone_walk_declined]. Each walk allocates only its own
    scratch (a visited set, a pair set, a worklist) and reads the
    index, so walks over one index may run concurrently; it adds
    the old states and pairs it reached to [whatif/cone_old_states] and
    [whatif/cone_pair_states]. [None] when the edited model exceeds
    [max_states]. *)

val cold_labels : Generate.options -> Universe.t -> Action.t list
(** The distinct findable labels of a cold exploration of the universe:
    every label an exploration interns sits on a transition.
    @raise Mdp_lts.Lts.Too_many_states past [max_states]. *)
