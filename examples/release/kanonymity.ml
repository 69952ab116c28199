open Mdp_anon

let classes_by ds ~by =
  let key i =
    String.concat "\x00"
      (List.map (fun c -> Value.to_string (Dataset.get ds ~row:i ~col:c)) by)
  in
  List.init (Dataset.nrows ds) (fun i -> (key i, i))
  |> Mdp_prelude.Listx.group_by ~key:fst
  |> List.map (fun (_, l) -> List.map snd l)

let classes ds = classes_by ds ~by:(Dataset.quasi_indices ds)

let min_class_size ds =
  match classes ds with
  | [] -> 0
  | cs -> List.fold_left (fun m c -> min m (List.length c)) max_int cs

let is_k_anonymous ~k ds = Dataset.nrows ds = 0 || min_class_size ds >= k

(* Distinct rendered values in a column: Datafly's attribute choice. *)
let distinct_count ds col =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  for r = 0 to Dataset.nrows ds - 1 do
    let s = Value.to_string (Dataset.get ds ~row:r ~col) in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      incr count
    end
  done;
  !count

(* Rows in classes smaller than [k], in class order. *)
let violating_rows ~k ds =
  List.concat
    (List.filter (fun c -> List.length c < k) (classes ds))

let remove_rows ds rows_to_drop =
  let n = Dataset.nrows ds in
  let drop = Array.make n false in
  List.iter (fun r -> if r >= 0 && r < n then drop.(r) <- true) rows_to_drop;
  let keep = List.filter (fun r -> not drop.(r)) (List.init n Fun.id) in
  Dataset.make ~attrs:(Dataset.attrs ds)
    ~rows:(List.map (Dataset.row ds) keep)

let datafly ~k ?(max_suppression = 0.0) ds scheme =
  let n = Dataset.nrows ds in
  let budget = int_of_float (Float.floor (max_suppression *. float_of_int n)) in
  let rec go levels =
    let gen = Kanon.apply ds scheme levels in
    let violating = violating_rows ~k gen in
    if List.length violating <= budget then
      Ok (remove_rows gen violating, levels, List.length violating)
    else
      (* Raise the not-yet-maxed quasi attribute with most distinct values. *)
      let candidates =
        List.filter
          (fun (attr, hier) ->
            List.assoc attr levels < Hierarchy.nlevels hier)
          scheme
      in
      match candidates with
      | [] -> Error "datafly: k-anonymity unreachable even at full suppression"
      | _ ->
        let attr, _ =
          List.fold_left
            (fun (best, bestc) (attr, _) ->
              let c = distinct_count gen (Dataset.col_index gen attr) in
              if c > bestc then (attr, c) else (best, bestc))
            ("", -1) candidates
        in
        let levels =
          List.map
            (fun (a, l) -> if a = attr then (a, l + 1) else (a, l))
            levels
        in
        go levels
  in
  go (List.map (fun (a, _) -> (a, 0)) scheme)

let optimal ~k ds scheme =
  let maxes = List.map (fun (_, h) -> Hierarchy.nlevels h) scheme in
  let rec vectors = function
    | [] -> [ [] ]
    | m :: rest ->
      let tails = vectors rest in
      List.concat_map (fun l -> List.map (fun t -> l :: t) tails)
        (List.init (m + 1) Fun.id)
  in
  let by_total =
    List.sort
      (fun a b ->
        match Int.compare (List.fold_left ( + ) 0 a) (List.fold_left ( + ) 0 b) with
        | 0 -> List.compare Int.compare a b
        | c -> c)
      (vectors maxes)
  in
  let to_levels v = List.map2 (fun (a, _) l -> (a, l)) scheme v in
  List.find_map
    (fun v ->
      let levels = to_levels v in
      let gen = Kanon.apply ds scheme levels in
      if is_k_anonymous ~k gen then Some (gen, levels) else None)
    by_total
