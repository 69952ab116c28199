(** Differencing two disclosure-risk reports.

    The §IV-A workflow is iterative — analyse, edit the policy,
    re-analyse; this module states precisely what an edit changed:
    findings that disappeared, appeared, or moved between levels.
    Findings are identified by their access signature (actor, store,
    action kind, field set), not by LTS state ids, which differ across
    regenerations. *)

type signature = {
  actor : string;
  store : string option;
  kind : Action.kind;
  fields : string list;  (** Sorted field names. *)
}

type change = {
  signature : signature;
  before : Level.t;  (** [None_] when the finding is new. *)
  after : Level.t;  (** [None_] when the finding disappeared. *)
}

type t = {
  removed : change list;
  added : change list;
  changed : change list;  (** Present in both with different levels. *)
  unchanged : int;
}

val signature_of_action : Action.t -> signature
val signature_of_finding : Disclosure_risk.finding -> signature
val diff : before:Disclosure_risk.report -> after:Disclosure_risk.report -> t

val improved : t -> bool
(** No added findings and no finding whose level rose. *)

val pp : Format.formatter -> t -> unit

(** {2 Per-signature level tables}

    The what-if sweep levels labels, not findings: each outcome folds
    its labels' levels into one table and diffs it against the base
    table. *)

type levels = (signature, Level.t) Hashtbl.t
(** Worst level per finding signature. A signature at [None_] is
    known but yields no finding. *)

val add_level : levels -> Action.t -> Level.t -> unit
(** Raise the action's signature to at least [level] (recording it at
    [level] when new). *)

val worst : levels -> Level.t
(** The maximum level in the table; [None_] when empty. *)

val of_levels : before:levels -> after:levels -> t
(** The diff between two tables, as {!diff} would give it over reports
    with these per-signature worst levels ([None_] entries count as
    absent). Change lists are sorted by signature. Reads only. *)
