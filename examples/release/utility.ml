open Mdp_anon

let numeric_column ds name =
  List.filter_map Value.midpoint (Dataset.column ds name)

let mean ds name =
  match numeric_column ds name with
  | [] -> None
  | vs -> Some (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))

let mean_drift ~original ~release name =
  match (mean original name, mean release name) with
  | Some a, Some b -> Some (Float.abs (a -. b))
  | None, _ | _, None -> None

let discernibility ds =
  Mdp_prelude.Listx.sum_by
    (fun cls ->
      let s = List.length cls in
      s * s)
    (Kanonymity.classes ds)

let avg_class_size ds =
  match Kanonymity.classes ds with
  | [] -> 0.0
  | cs -> float_of_int (Dataset.nrows ds) /. float_of_int (List.length cs)
