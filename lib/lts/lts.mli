(** Generic labelled transition systems.

    States are hash-consed: adding equal state data twice yields the same
    dense integer id, which is what makes fixed-point exploration of the
    privacy model terminate (paper §II-B generates the LTS as the set of
    reachable privacy states). An explored LTS is immutable: risk
    analysis (paper §III) returns its annotations beside it.

    Storage is packed: a state is a fixed number of 63-bit payload words
    (given by the LTS's {!packer}), stored as a byte-granular record in
    an append-only arena — delta-encoded against its breadth-first
    parent when that is smaller than a full record — and deduplicated
    during exploration through hash-partitioned shard tables, which are
    dropped once it ends. Labels are interned; a
    transition is one int. At privacy-model shapes this stores states at
    a few bytes each instead of a materialised config's hundreds, which
    is what lets ten-million-state models sit in RAM. States of any
    width are supported, up to records that fit one 64 KiB arena chunk
    (about 6,500 words).

    [explore] walks breadth-first frontiers on the calling domain.
    Two facts about every explored LTS follow, and the analyses rely on
    them: every stored state is reachable from the initial state, and
    state ids follow breadth-first discovery order while each row keeps
    its emission order. So scanning rows by ascending id is a
    breadth-first walk, and it meets each state's discovering edge
    before any other edge into it ({!witness_tree}). *)

module type STATE = sig
  type t
  (** The state type. The engine compares, hashes and prints no state:
      it works on packed words (see {!packer}). *)
end

module type LABEL = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  (** Must be consistent with [equal]; used for O(1) duplicate-transition
      detection. *)

  val pp : Format.formatter -> t -> unit
end

exception Too_many_states of int
(** Raised by [explore] when the state guard is exceeded; carries the
    limit that was hit. Top-level (outside the functor) so every
    instantiation raises the same exception. *)

type abort_stats = {
  ab_limit : int;  (** the [max_states] that was exceeded *)
  ab_states : int;  (** states stored when the guard fired *)
  ab_transitions : int;
  ab_bytes_per_state : float;  (** observed bytes/state at abort *)
  ab_resident_bytes : int;  (** engine bytes still in RAM at abort *)
  ab_spill_bytes : int;  (** bytes evicted to disk at abort; 0 unspilled *)
  ab_mem_budget : int option;
      (** the resident budget the exploration ran under, if any *)
}
(** Context captured when {!Too_many_states} is raised, for error
    reports that help operators size [max_states] against real memory. *)

val last_abort_stats : unit -> abort_stats option
(** Stats of the most recent {!Too_many_states} raised {e on this
    domain} (domain-local so concurrent explorations on different serve
    workers do not clobber each other). The raise and the catch of an
    exception happen on the same domain, so reading this in a handler is
    race-free. *)

type mem_stats = {
  ms_states : int;
  ms_transitions : int;
  ms_state_bytes : int;  (** state-record arena (full + delta records) *)
  ms_edge_bytes : int;  (** flat (label id, dst) edge stream *)
  ms_index_bytes : int;  (** record offsets, depths, row table *)
  ms_dedup_bytes : int;
      (** shard tables: the young tables during exploration, the
          spilled generations after it *)
  ms_full_states : int;  (** states stored as full (zero-base) records *)
  ms_delta_states : int;  (** states stored as deltas against their parent *)
  ms_labels : int;  (** distinct interned labels *)
  ms_total_bytes : int;
  ms_bytes_per_state : float;
  ms_resident_bytes : int;
      (** the part of [ms_total_bytes] still held in RAM — equal to it
          when nothing spilled *)
  ms_spill_bytes : int;  (** bytes evicted to the disk tier *)
  ms_spill_chunks : int;  (** arena chunks evicted *)
  ms_spill_tables : int;  (** sealed dedup generations evicted *)
  ms_spill_faults : int;  (** disk-tier reads served so far *)
  ms_mem_budget : int option;  (** resident budget, if one was set *)
}
(** Byte accounting of an LTS, split by structure. Counts the
    engine's own storage (arena, edges, index tables, shard tables), not
    the OCaml heap at large. [ms_total_bytes] keeps its PR 7 meaning —
    all engine bytes wherever they live — so resident occupancy is
    [ms_total_bytes - ms_spill_bytes = ms_resident_bytes]. *)

type spill_stats = {
  sp_dir : string;  (** the run directory holding the spill files *)
  sp_bytes : int;
  sp_chunks : int;
  sp_tables : int;
  sp_faults : int;
  sp_budget : int;  (** the budget that forced the spill, in bytes *)
}
(** Disk-tier occupancy of an LTS that ran under [?mem_budget] and
    actually evicted something. *)

type 'a packer = {
  pk_words : int;  (** words per encoded state — a model constant *)
  pk_blit : 'a -> int array -> int -> unit;
      (** write the state's [pk_words] words at the given offset *)
  pk_decode : int array -> int -> 'a;
      (** rebuild a state from [pk_words] words at the given offset; must
          be safe to call from multiple domains concurrently *)
}
(** Fixed-width word codec for a state type. Contract: two states of the
    same model are the same state iff their encoded words are equal —
    the engine dedups and hashes on words alone, so {!STATE} asks for
    nothing but the type. *)

module Make (S : STATE) (L : LABEL) : sig
  type t

  type state_id = int
  (** Dense, starting at 0 in insertion order. *)

  type transition = { src : state_id; label : L.t; dst : state_id }

  (** {1 Construction} *)

  val explore :
    ?max_states:int ->
    ?cancel:Mdp_obs.Cancel.t ->
    packing:S.t packer ->
    ?mem_budget:int ->
    ?spill_dir:string ->
    init:S.t ->
    label_of:(int -> L.t) ->
    step_words:(int array -> int array -> (int -> unit) -> unit) ->
    unit ->
    t
  (** Breadth-first fixed point: starting from [init], repeatedly expand
      unvisited states with [step_words]. Equal states (by their packed
      words) get one id, and a successor emitted twice under an equal
      label is one transition.

      Successors are emitted as packed words, so nothing is boxed per
      candidate. [step_words parent cand emit] expands one state:
      [parent] holds its [pk_words] decoded words (read-only); for each
      successor, in row order, the emitter writes all [pk_words] words
      of the successor (its [pk_blit] encoding, so the {!packer}
      contract holds) into [cand] and calls [emit key]. [cand] is
      the engine's buffer and its contents are valid only until [emit]
      returns, so every successor rewrites it in full. [key] is a
      dense, emitter-local label key (a small non-negative int, one
      label per key; several keys may name equal labels). The engine
      maps keys to interned label ids through an int array and calls
      [label_of key] only the first time it sees [key], at the edge
      that first carries it — so label ids keep first-edge order.

      [packing] is the state codec: states live as packed words in an
      arena (delta-encoded against their BFS parent when smaller), dedup
      runs through hash-partitioned shard tables (dropped when the
      exploration ends), and [packing.pk_blit] is used for [init]
      alone: every other state enters as emitted words.

      Ids are handed out in discovery order, so each breadth-first
      round expands exactly the id range the previous round discovered,
      starting from the initial state, id 0, one state at a time on the
      calling domain.

      [mem_budget] bounds the engine's {e
      resident} bytes: when arena chunks, side tables and dedup shards
      together exceed the budget, sealed 64 KiB arena chunks — oldest
      first — and young dedup-shard tables are evicted to append-only
      spill files in a fresh temporary directory (override the parent
      with [spill_dir]), and are read back on demand through bounded
      mmap windows and a small per-domain pinned-chunk cache. The
      exploration then completes in disk rather than RAM, identically:
      spilling moves bytes, never changes discovery order, so state
      numbering stays byte-identical for every budget. Budgets below the
      engine's unevictable floor (edge stream + offset index + the open
      chunk) degrade to spilling everything evictable. The spill
      directory is deleted when the LTS is GC-collected, when
      {!drop_spill} is called, on any exploration
      failure ({!Too_many_states}, cancellation, a spill I/O failure),
      and by an [at_exit] sweep. The disk tier's OS failures — an
      unusable [spill_dir], a full disk — raise [Spill.Io_error].

      [cancel] is polled cooperatively every 512 expansions. A fired
      token unwinds with [Mdp_obs.Cancel.Cancelled] at the next poll;
      the partially built LTS is discarded and nothing run-global is
      left behind, so the caller can immediately start a fresh
      exploration.

      @raise Mdp_obs.Cancel.Cancelled when [cancel] fires mid-run.
      @raise Too_many_states when [max_states] (default 200_000) is
      exceeded — a guard against accidentally infinite models. The
      abort context (including observed bytes/state) is readable via
      {!last_abort_stats}. *)

  (** {1 Observation} *)

  val initial : t -> state_id
  (** @raise Invalid_argument on an empty LTS. *)

  val num_states : t -> int
  val num_transitions : t -> int

  val state_data : t -> state_id -> S.t
  (** Decodes the state's record (walking its delta chain); safe to
      call from multiple domains concurrently. Decoded
      values are not cached — hold on to the result across repeated
      use. *)

  val interned_labels : t -> L.t array option
  (** The interned-label table (a copy), indexed by the label ids
      {!iter_successors_lid} reports. Always [Some]: every LTS interns
      its labels; the option remains for callers that match on it. Lets
      a caller precompute one verdict per distinct label instead of
      re-inspecting labels per transition. *)

  val iter_successors_lid : t -> state_id -> (int -> state_id -> unit) -> unit
  (** Like {!iter_successors} but passing the interned label id instead
      of the label — an int-only row scan. *)

  val iter_states : t -> (state_id -> unit) -> unit
  (** Iterate ids [0 .. num_states - 1] without allocating. *)

  val successors : t -> state_id -> (L.t * state_id) list
  (** In insertion order. Allocates a fresh list; prefer
      {!iter_successors} on hot paths. *)

  val iter_successors : t -> state_id -> (L.t -> state_id -> unit) -> unit
  (** Iterate the successor array in insertion order without allocating. *)

  val iter_transitions : t -> (transition -> unit) -> unit

  val mem_stats : t -> mem_stats option
  (** Byte accounting of the storage. Always [Some]; the option remains
      for callers that match on it. *)

  val spill_stats : t -> spill_stats option
  (** Disk-tier occupancy; [None] on an LTS that never spilled (no
      budget, or the model fit under it). *)

  val drop_spill : t -> unit
  (** Delete the LTS's spill directory now instead of waiting for GC or
      process exit. Decodes of spilled states fail afterwards — call
      only when done with the LTS. No-op when nothing spilled. *)

  (** {1 Analysis} *)

  val witness_tree : t -> int array * int array
  (** [(parent, via)], indexed by state: the state's parent in the
      breadth-first tree and the interned label id ({!interned_labels})
      of the edge that discovered it; both -1 for the initial state.
      Built in one pass over the rows by ascending id, with no queue:
      the first edge into a state in that scan is its discovering edge.
      Every state but the initial one has a parent with a lower id. *)

  val unwind :
    int array * int array -> (int -> state_id -> 'a) -> state_id -> 'a list
  (** [unwind tree f s]: the tree path from the initial state to [s],
      one [f via dst] per step in order — [via] is the step's label id,
      [dst] the state it reaches; [[]] for the initial state. *)

  val is_deterministic : t -> bool
  (** No state has two outgoing transitions with equal labels (compared
      by interned label id: equal labels share one). *)

  val path_to : t -> (state_id -> bool) -> (L.t * state_id) list option
  (** Shortest witness path (sequence of steps from the initial state) to
      the first state, in breadth-first order, satisfying the predicate
      — the lowest such id, with its {!witness_tree} path; [Some []] if
      the initial state does. Unwinds a tree built from the rows below
      that id only. *)

  val longest_path : t -> int option
  (** Longest transition count along any path from the initial state;
      [None] when the reachable part is cyclic. *)

  val count_maximal_paths : t -> int option
  (** Number of distinct paths from the initial state to a sink (a state
      with no successors) — for a generated privacy model, the number of
      complete execution interleavings. [None] when cyclic. *)

  (** {1 Output} *)

  val to_dot :
    graph_name:string -> label_style:(L.t -> string) -> t -> string
  (** States are labelled [s<id>], the initial one drawn bold.
      [label_style] returns extra DOT attributes for the transitions
      carrying a label (e.g. ["style=dashed, color=red"]); empty string
      for none. Each interned label is printed and styled once. *)
end
