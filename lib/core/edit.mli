(** Typed model edits and their invalidation impact.

    The paper's §IV-A case study is an {e edit loop}: analyse, change
    one ACL, re-analyse. This module gives that loop a first-class
    vocabulary — ACL grants/revocations, flow additions/removals, field
    sensitivity changes, service (dis)agreement, anonymisation-binding
    changes — plus the impact classifier [Analysis.run_incremental]
    uses to decide which artifacts of the previous run (LTS, compiled
    risk plan, per-profile evaluation, population classes, pseudonym
    pass, consistency gaps) survive the edit. *)

open Mdp_dataflow
open Mdp_policy

type t =
  | Grant of Acl.entry  (** Append an ACL entry (either effect). *)
  | Revoke of {
      subject : Acl.subject;
      store : string;
      fields : Field.t list option;  (** [None] = all fields. *)
      perms : Permission.t list;
    }  (** Deny-overrides revocation ([Policy.revoke]). *)
  | Add_flow of { service : string; flow : Flow.t }
  | Remove_flow of { service : string; order : int }
  | Set_sensitivity of Field.t * float  (** Set σ(d) for one field. *)
  | Set_agreement of { service : string; agreed : bool }
  | Set_bindings of Pseudonym_risk.binding list
      (** Replace the anonymisation-release binding set (§III-B). *)

(** The editable model inputs, as one value. *)
type inputs = {
  diagram : Diagram.t;
  policy : Policy.t;
  profile : User_profile.t option;
  bindings : Pseudonym_risk.binding list;
}

val apply : inputs -> t -> (inputs, string) result
(** Apply one edit, re-validating the edited artifact (policy against
    the diagram, diagram invariants, sensitivity bounds; a σ edit must
    name a field of the diagram). Unchanged components are returned
    physically equal, which is what {!classify} keys on. *)

val apply_all : inputs -> t list -> (inputs, string) result
(** Left-to-right; stops at the first error. *)

(** Which artifacts of a previous run an edit invalidates. Each flag is
    conservative: [false] guarantees the artifact is byte-identical to
    what a cold run on the edited inputs would produce. *)
type invalidation = {
  inv_lts : bool;
      (** Reachable transition structure may differ: re-explore (and
          with it everything downstream). *)
  inv_cone : bool;
      (** Set alongside [inv_lts] when the damage is a pure
          policy-shrink candidate for cone-scoped re-exploration: the
          diagram is unchanged, bindings are empty, and only concrete
          ACL permissions moved. Candidacy only — {!Regen.make_patch}
          makes the final eligibility call from the compiled artifacts
          and falls back to a cold run when it declines. *)
  inv_plan : bool;
      (** Compiled risk-plan entries stale (today: deleter sets
          changed — repatchable without recompiling). *)
  inv_risk : bool;  (** Per-profile risk report must be re-evaluated. *)
  inv_classes : bool;
      (** Population equivalence classes invalidated (field/service
          inventory changed). *)
  inv_sigma : (Field.t * float) list option;
      (** [Some overrides] when the only profile change is per-field
          sensitivity (agreed services identical): the changed fields
          with their new values. Population aggregates can then
          re-evaluate only the equivalence classes whose σ actually
          moved ({!Population.reaggregate}) instead of tripping
          [inv_classes]. *)
  inv_pseudonym : bool;  (** Pseudonym pass must re-run. *)
  inv_consistency : bool;  (** Consistency gaps must be recomputed. *)
}

val nothing : invalidation
val everything : invalidation

val classify :
  options:Generate.options -> before:inputs -> after:inputs -> invalidation
(** Compare two input sets (typically [before] and [apply_all before
    edits]) and bound the damage. The interesting judgements:

    - a policy edit whose concrete permission relation is unchanged
      ([Policy.diff] empty) invalidates nothing;
    - Delete-permission edits preserve the LTS when potential deletes
      are off — only the maintenance-exposure flags of the risk plan
      (and the report) change, and not even those when the store-level
      deleter sets are unchanged;
    - a Read grant/revocation on a field that can never reach the
      store's contents (no active, policy-permitted create/anon flow
      writes it) is invisible to the LTS and the report;
    - Write edits are invisible to the LTS when enforcement is off, or
      when the affected actor writes no flow carrying the field;
    - any concrete policy change under active anonymisation bindings
      invalidates everything (the pass reads Read permissions and grows
      the LTS);
    - profile edits never invalidate the LTS or the plan;
    - diagram edits invalidate everything. *)

val writable_fields :
  options:Generate.options ->
  Diagram.t ->
  Policy.t ->
  string ->
  Field.t list
(** Fields that can ever reach the store's contents (with duplicates);
    the Read-edit preservation test above, exposed for the sweep
    driver. *)

val deleter_sets : Diagram.t -> Policy.t -> string list list
(** Per datastore (in diagram order), the actors holding Delete on any
    of its fields — the §III-A maintenance-exposure relation the
    Delete-edit delta compares before/after. *)

(** {2 CLI specs}

    Concrete syntax used by [mdpriv whatif --edit] and the serve
    protocol: [grant:SUBJ:PERMS:STORE[:FIELDS]],
    [revoke:SUBJ:PERMS:STORE[:FIELDS]], [flow-:SERVICE:ORDER],
    [flow+:SERVICE:ORDER:SRC>DST:FIELDS[:PURPOSE]] (nodes as [user],
    [actor.NAME], [store.NAME]), [sensitivity:FIELD=V],
    [agree:+SERVICE], [agree:-SERVICE]. [SUBJ] is an actor id or
    [role.NAME]; [PERMS] and [FIELDS] are comma-separated. *)

val parse : string -> (t, string) result
val parse_all : string list -> (t list, string) result

val pp : Format.formatter -> t -> unit
(** Canonical rendering; the inverse of {!parse} for parseable edits
    (used as serve cache-key material). Identifiers containing the
    spec's separator characters ([:] [,] [=] [>]), whitespace, a double
    quote or a backslash — or empty identifiers — are double-quoted
    with backslash escapes, and {!parse} unquotes them, so
    [parse (to_string e) = Ok e] for every edit except [Set_bindings]
    and deny-effect [Grant]s (which have no spec syntax). *)

val to_string : t -> string

val canonical_batch : t list -> t list
(** Canonical representative of an edit batch under semantic
    equivalence: profile edits shadowed by a later edit on the same
    target (same σ field, same agreement service, any binding set) are
    dropped, adjacent structurally equal ACL edits are deduplicated,
    and independent edits — ACL/ACL pairs, flow edits on different
    services, profile edits on different targets, profile edits against
    anything — are sorted by their printed form. Two batches that are
    permutations of one another up to these commutations canonicalise
    identically, so serve can key its what-if result cache on the
    canonical form without a vacuous or reordered edit splitting (or
    wrongly sharing) cache entries. *)
