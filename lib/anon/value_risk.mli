(** The paper's pseudonymisation *value risk* (§III-B).

    Given a pseudonymised release, an adversary who has read some subset
    of the released quasi fields ([fields_read]) sees the data partitioned
    into sets of records that appear identical on those fields. The risk
    that record [r]'s sensitive value is matched is the marginal
    probability [risk(r, f) = frequency(f) / size(s)]: the number of
    values in [r]'s set within [closeness] of [r]'s own value, over the
    set size. A policy violation occurs when that probability reaches the
    [confidence] threshold — e.g. Table I's "predict an individual's
    weight to within 5 kg with at least 90% confidence". Risks are kept as
    unreduced fractions exactly as the paper reports them (2/4, 2/2, …). *)

type policy = {
  sensitive : string;  (** Attribute the adversary tries to match. *)
  closeness : float;  (** "Close enough" radius on the sensitive value. *)
  confidence : float;  (** Violation threshold in [0, 1]. *)
}

type score = {
  record : int;  (** Row index. *)
  risk : Mdp_prelude.Frac.t;
  violation : bool;
}

type report = {
  fields_read : string list;
  policy : policy;
  scores : score list;  (** One per row, in row order. *)
  violations : int;
}

val assess : Dataset.t -> fields_read:string list -> policy -> report
(** [fields_read] may be empty (the whole release is one set).
    @raise Not_found on an unknown attribute name. *)

val read_sets : Dataset.t -> string list list
(** The non-empty subsets of the quasi attributes, ordered by subset
    size then attribute order — the per-risk-transition inputs of
    Fig. 4. *)

val sweep : Dataset.t -> policy -> report list
(** One report per {!read_sets} entry, in that order. *)

val max_risk : report -> Mdp_prelude.Frac.t
(** Largest per-record risk (0/1 on an empty dataset). *)

val pp_report : Format.formatter -> report -> unit
