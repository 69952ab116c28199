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
    unreduced fractions exactly as the paper reports them (2/4, 2/2, …).

    This module holds the vocabulary; {!Columnar} computes the reports. *)

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

val check_policy : policy -> (unit, string) result
(** [Error] unless [closeness] is finite and at least 0 and [confidence]
    is within [0, 1] (NaN in neither). Outside them the scores mean
    nothing: a negative radius makes every record read as safe, a
    confidence above 1 (or NaN) can never flag one and one below 0 flags
    every one. *)

val read_sets : Dataset.t -> string list list
(** The non-empty subsets of the quasi attributes, ordered by subset
    size then attribute order — the per-risk-transition inputs of
    Fig. 4. *)

val max_risk : report -> Mdp_prelude.Frac.t
(** Largest per-record risk (0/1 on an empty dataset). *)

val pp_report : Format.formatter -> report -> unit
