type scheme = (string * Hierarchy.t) list

type levels = (string * int) list

let apply ds scheme levels =
  List.fold_left
    (fun ds (attr, hier) ->
      match List.assoc_opt attr levels with
      | None | Some 0 -> ds
      | Some level -> Dataset.map_column ds attr (Hierarchy.generalise hier ~level))
    ds scheme
