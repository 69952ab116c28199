type kind = Identifier | Quasi | Sensitive | Insensitive

type t = { name : string; kind : kind }

let make ~name ~kind =
  if name = "" then invalid_arg "Attribute.make: empty name";
  { name; kind }

let is_quasi t = t.kind = Quasi
let is_sensitive t = t.kind = Sensitive
