(** Minimal JSON values and serialisation.

    Reports are exported as machine-readable JSON so downstream tooling
    (dashboards, CI gates) can consume analysis results; no external JSON
    dependency is available in this environment, so writing (and a small
    parser for round-trip tests) live here. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation. *)

val of_string : string -> (t, string) result
(** Standard JSON subset: no unicode escapes beyond [\uXXXX] pass-through
    (kept verbatim), numbers as OCaml floats. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects. *)

val to_int_opt : t -> int option
(** [Num] truncated to int; [None] otherwise. *)

val to_str_opt : t -> string option
val to_list_opt : t -> t list option
