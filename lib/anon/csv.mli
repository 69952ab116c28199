(** Minimal CSV bridge for datasets: comma-separated, first line is the
    header, no quoting (values containing commas are out of scope — the
    microdata this library handles is numeric and categorical codes).
    Cells parse as [Int], then [Float], then ranges like [20-30] as
    [Interval], [*] as [Suppressed], and otherwise [Str]. *)

val parse :
  kinds:(string * Attribute.kind) list -> string -> (Dataset.t, string) result
(** [kinds] assigns attribute kinds by header name; unlisted columns are
    [Insensitive]. [Error] on an empty CSV, an empty or duplicate header
    name, a [kinds] name missing from the header or given two different
    kinds, or a row whose width differs from the header's. *)

val render : Dataset.t -> string
(** Header + rows; inverse of {!parse} up to cell formatting. *)
