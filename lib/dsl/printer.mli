(** Render a diagram + policy back into the model-description language.
    [Parser.parse (Printer.to_string m)] reproduces the model (the
    round-trip property the test suite checks). *)

val to_string : Parser.model -> string
