(** Graphviz rendering of data-flow diagrams (paper Fig. 1 shape: ovals for
    the user and actors, rectangles for datastores, one labelled arrow per
    flow). Services are rendered as clusters. *)

val to_string : Diagram.t -> string
