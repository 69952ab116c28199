(** Data-level datastore simulation.

    {!Sim} generates event traces; this module holds the *records
    themselves*: one in-memory table per datastore of the model, keyed by
    data subject, with ACL-enforced field access and a pseudonymisation
    operation producing releases in the model's anonymised stores.
    It exists for the paper's run-time path (§III-B "Using Risk Scores":
    "the model can be applied to the running system to get a more
    accurate picture of risk") — {!dataset} extracts a live
    {!Mdp_anon.Dataset} from an anonymised store so value risk can be
    recomputed from the data actually there. *)

open Mdp_dataflow

type t

val create : ?seed:int -> Mdp_core.Universe.t -> t
(** The seed drives pseudonym generation only. *)

type subject = string

val write :
  t ->
  actor:string ->
  store:string ->
  subject:subject ->
  (Field.t * Mdp_anon.Value.t) list ->
  (unit, string) result
(** Upsert fields of the subject's record. Enforced: fields the actor may
    not [Write] are rejected (all-or-nothing, because a partial write
    would corrupt the record). Fails on fields outside the store's
    schemas or on anon-variant fields (use {!pseudonymise}). *)

val subjects : t -> store:string -> subject list
(** In insertion order. Pseudonymised stores list opaque pseudonyms. *)

val pseudonymise :
  t ->
  actor:string ->
  from_store:string ->
  to_store:string ->
  generalise:(Field.t * (Mdp_anon.Value.t -> Mdp_anon.Value.t)) list ->
  (int, string) result
(** Re-derive the anonymised store's contents: every record of
    [from_store] is copied under a fresh opaque pseudonym, each listed
    field passed through its generaliser, unlisted fields copied raw;
    every copied field is stored as its anon variant. Requires the
    actor's Read on the copied source fields and Write on the anon
    variants. Replaces the previous release. Returns the record count. *)

val dataset :
  t ->
  store:string ->
  kinds:(Field.t * Mdp_anon.Attribute.kind) list ->
  (Mdp_anon.Dataset.t, string) result
(** Extract the store's contents as a dataset for offline analysis.
    Attribute names are field names (anon markers stripped); [kinds]
    assigns the taxonomy, unlisted fields are [Insensitive]; missing
    cells are [Suppressed]. Row order = subject insertion order. *)
