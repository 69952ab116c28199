(** Dataset attributes and their disclosure taxonomy (Sweeney's
    categories): direct identifiers are removed before release,
    quasi-identifiers are generalised, sensitive attributes are published
    raw and are what value risk (§III-B) protects. *)

type kind = Identifier | Quasi | Sensitive | Insensitive

type t = { name : string; kind : kind }

val make : name:string -> kind:kind -> t
val is_quasi : t -> bool
val is_sensitive : t -> bool
