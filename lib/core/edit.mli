(** Typed model edits and their invalidation impact.

    The paper's §IV-A case study is an {e edit loop}: analyse, change
    one ACL, re-analyse. This module gives that loop a first-class
    vocabulary — ACL grants/revocations, flow additions/removals, field
    sensitivity changes, service (dis)agreement, anonymisation-binding
    changes — plus the impact classifier that decides which artifacts
    of the previous run (LTS, compiled risk plan, per-profile
    evaluation, population classes, pseudonym pass, consistency gaps)
    survive the edit. {!Analysis.run_incremental} reuses what it
    keeps; the what-if sweep ({!Whatif}) classifies candidates by it
    and computes their outcomes by levelling labels, not through
    [run_incremental]. *)

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
          with it everything downstream, population equivalence classes
          included — reported as [classes] beside [lts]). *)
  inv_cone : Generate.policy_changes option;
      (** [Some changes] alongside [inv_lts] when the LTS changes because
          of the policy alone, on an unchanged diagram: the comparison
          that decided it, which the what-if sweep hands to
          {!Regen.make_patch} to try the cone walk. Candidacy only —
          the patch makes the final eligibility call, and the sweep
          computes the outcome in full when it declines. An incremental
          run explores the edited model cold either way. *)
  inv_plan : bool;
      (** Compiled risk-plan entries stale (today: deleter sets
          changed — repatchable without recompiling). *)
  inv_risk : bool;  (** Per-profile risk report must be re-evaluated. *)
  inv_sigma : (Field.t * float) list option;
      (** [Some overrides] when the only profile change is per-field
          sensitivity (agreed services identical): the changed fields
          with their new values. Population aggregates can then
          re-evaluate only the equivalence classes whose σ actually
          moved ({!Population.reaggregate}) instead of all of
          them. *)
  inv_pseudonym : bool;  (** Pseudonym pass must re-run. *)
  inv_consistency : bool;  (** Consistency gaps must be recomputed. *)
}

val everything : invalidation

val invalidation_flags : invalidation -> (string * bool) list
(** Every flag as a (name, set) pair, in report order: [lts], [cone],
    [plan], [risk], [classes] (population equivalence classes, set
    with [lts]), [sigma], [pseudonym], [consistency]. *)

val classify :
  options:Generate.options ->
  universe:Universe.t ->
  before:inputs ->
  after:inputs ->
  invalidation
(** Compare two input sets (typically [before] and [apply_all before
    edits]) and bound the damage. [universe] is [before]'s universe
    (the previous run's). The interesting judgements:

    - a policy edit whose concrete permission relation is unchanged
      ([Policy.diff] empty) invalidates nothing;
    - any other policy edit on an unchanged diagram invalidates the LTS
      exactly when {!Generate.policy_changes} finds a compiled input of
      exploration that moved: a compiled flow, a potential-read row
      over the fields that can reach the store, or (with potential
      deletes) a deleter or reader set. Delete edits with potential
      deletes off and Write edits with enforcement off therefore keep
      the LTS. A Read edit on a field no flow ever writes into the
      store keeps it too, unless a read flow of that store carries the
      field: the flow's guard moves with its effective fields;
    - with the LTS kept, the risk plan (and report) re-evaluate only
      when a store's deleter set moved — the maintenance-exposure
      flags;
    - a binding edit, or any concrete policy change under active
      anonymisation bindings, re-runs the pseudonym pass (it reads Read
      permissions) and nothing else on that account;
    - profile edits never invalidate the LTS or the plan;
    - diagram edits invalidate everything.

    The before side of the policy comparison ({!baseline}) is built only
    when the policy changed on an unchanged diagram. *)

type baseline
(** The before side of {!classify}: the before inputs with their
    concrete permission relation and compiled flows, built once so that
    many edits of one base (the what-if sweep) compare against it
    without recomputing it. Read-only once built. *)

val baseline :
  options:Generate.options -> universe:Universe.t -> inputs -> baseline

val classify_against : baseline -> inputs -> invalidation
(** [classify_against (baseline ~options ~universe before) after] is
    {!classify}[ ~options ~universe ~before ~after]. *)

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
