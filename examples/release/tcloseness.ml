open Mdp_anon

let distribution values =
  (* value (by printed form) -> probability, plus the ordered support *)
  let n = float_of_int (List.length values) in
  let groups = Mdp_prelude.Listx.group_by ~key:Fun.id values in
  List.map (fun (v, occ) -> (v, float_of_int (List.length occ) /. n)) groups

let column_strings ds sensitive rows =
  let col = Dataset.col_index ds sensitive in
  List.map (fun r -> Value.to_string (Dataset.get ds ~row:r ~col)) rows

let numeric_column ds sensitive rows =
  let col = Dataset.col_index ds sensitive in
  let vs =
    List.filter_map (fun r -> Value.numeric (Dataset.get ds ~row:r ~col)) rows
  in
  if List.length vs = List.length rows then Some vs else None

let all_rows ds = List.init (Dataset.nrows ds) Fun.id

(* Ordered-distance EMD between a class distribution and the global one:
   with the global support v_1 < ... < v_m, EMD = (sum over prefixes of
   |cumulative (p - q)|) / (m - 1). *)
let ordered_emd ~support ~global ~cls =
  let m = List.length support in
  if m <= 1 then 0.0
  else begin
    let prob dist v = Option.value (List.assoc_opt v dist) ~default:0.0 in
    let cumulative = ref 0.0 and total = ref 0.0 in
    List.iter
      (fun v ->
        cumulative := !cumulative +. prob cls v -. prob global v;
        total := !total +. Float.abs !cumulative)
      support;
    !total /. float_of_int (m - 1)
  end

let numeric_emd ds ~sensitive =
  if Dataset.nrows ds = 0 then None
  else
    match numeric_column ds sensitive (all_rows ds) with
    | None -> None
    | Some all ->
      let support = List.sort_uniq Float.compare all in
      let dist vs =
        distribution vs
      in
      let global = dist all in
      let worst =
        List.fold_left
          (fun acc cls_rows ->
            match numeric_column ds sensitive cls_rows with
            | Some vs -> Float.max acc (ordered_emd ~support ~global ~cls:(dist vs))
            | None -> acc)
          0.0 (Kanonymity.classes ds)
      in
      Some worst

let categorical_distance ds ~sensitive =
  if Dataset.nrows ds = 0 then None
  else begin
    let global = distribution (column_strings ds sensitive (all_rows ds)) in
    let support = List.map fst global in
    let worst =
      List.fold_left
        (fun acc cls_rows ->
          let cls = distribution (column_strings ds sensitive cls_rows) in
          let prob dist v = Option.value (List.assoc_opt v dist) ~default:0.0 in
          let tv =
            0.5
            *. Mdp_prelude.Listx.sum_byf
                 (fun v -> Float.abs (prob cls v -. prob global v))
                 support
          in
          Float.max acc tv)
        0.0 (Kanonymity.classes ds)
    in
    Some worst
  end

let is_t_close ~t ds ~sensitive =
  if Dataset.nrows ds = 0 then true
  else
    match numeric_emd ds ~sensitive with
    | Some d -> d <= t
    | None -> (
      match categorical_distance ds ~sensitive with
      | Some d -> d <= t
      | None -> true)
