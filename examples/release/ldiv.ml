open Mdp_anon

let class_values ds ~sensitive cls =
  let col = Dataset.col_index ds sensitive in
  List.map (fun r -> Value.to_string (Dataset.get ds ~row:r ~col)) cls

let distinct ds ~sensitive =
  match Kanonymity.classes ds with
  | [] -> 0
  | cs ->
    List.fold_left
      (fun acc cls ->
        min acc
          (List.length (Mdp_prelude.Listx.dedup (class_values ds ~sensitive cls))))
      max_int cs
