(* The naive Mondrian multidimensional k-anonymiser (LeFevre et al.),
   the oracle [Mdp_anon.Columnar.mondrian_release] is checked against.
   Numeric quasi-identifiers only: rows are recursively split at the
   median of the widest-normalised-range attribute while both halves
   keep at least [k] rows; each final partition's quasi cells are
   replaced by the partition's covering interval (or the exact value
   when the partition is constant in that attribute). [Error] when
   [k < 1], the dataset has fewer than [k] rows, or some quasi column is
   non-numeric; row order is preserved. *)

open Mdp_anon

let numeric_cell ds ~row ~col =
  match Value.numeric (Dataset.get ds ~row ~col) with
  | Some x -> Ok x
  | None ->
    Error
      (Printf.sprintf "mondrian: non-numeric quasi value at row %d col %d" row
         col)

let check_numeric ds =
  let quasi = Dataset.quasi_indices ds in
  let rec go rows =
    match rows with
    | [] -> Ok quasi
    | r :: rest ->
      let rec cols = function
        | [] -> go rest
        | c :: cs -> (
          match numeric_cell ds ~row:r ~col:c with
          | Ok _ -> cols cs
          | Error e -> Error e)
      in
      cols quasi
  in
  go (List.init (Dataset.nrows ds) Fun.id)

(* Numeric content of every quasi cell, parsed once: [col -> row -> x].
   Only quasi slots are populated; callers index with quasi columns
   only. Hoisting this out of the recursion means each cell is decoded
   once per anonymisation instead of once per partition step per
   sort/partition pass. *)
let quasi_values ds quasi =
  let vals = Array.make (Dataset.ncols ds) [||] in
  List.iter
    (fun c ->
      vals.(c) <-
        Array.init (Dataset.nrows ds) (fun r ->
            Result.get_ok (numeric_cell ds ~row:r ~col:c)))
    quasi;
  vals

let range vals rows col =
  let arr = vals.(col) in
  List.fold_left
    (fun (lo, hi) r -> (Float.min lo arr.(r), Float.max hi arr.(r)))
    (Float.infinity, Float.neg_infinity)
    rows

(* Split at the median of the chosen attribute; strictly-less goes left so
   ties never produce an empty side. *)
let split vals rows col =
  let arr = vals.(col) in
  let values = Array.of_list (List.map (fun r -> arr.(r)) rows) in
  Array.sort Float.compare values;
  let median = values.(Array.length values / 2) in
  List.partition (fun r -> arr.(r) < median) rows

let partitions_rows ~k vals quasi nrows =
  let rec go rows =
    if List.length rows < 2 * k then [ rows ]
    else
      (* Widest normalised range first (classic Mondrian choice). *)
      let ranked =
        List.sort
          (fun (_, w1) (_, w2) -> Float.compare w2 w1)
          (List.map
             (fun c ->
               let lo, hi = range vals rows c in
               (c, hi -. lo))
             quasi)
      in
      let rec try_cols = function
        | [] -> [ rows ]
        | (c, width) :: rest ->
          if width <= 0.0 then [ rows ]
          else
            let left, right = split vals rows c in
            if List.length left >= k && List.length right >= k then
              go left @ go right
            else try_cols rest
      in
      try_cols ranked
  in
  go (List.init nrows Fun.id)

let partitions ~k ds =
  if k < 1 then Error "mondrian: k must be at least 1"
  else if Dataset.nrows ds < k then Error "mondrian: fewer rows than k"
  else
    match check_numeric ds with
    | Error e -> Error e
    | Ok quasi ->
      Ok (partitions_rows ~k (quasi_values ds quasi) quasi (Dataset.nrows ds))

let anonymise ~k ds =
  match partitions ~k ds with
  | Error e -> Error e
  | Ok parts ->
    let quasi = Dataset.quasi_indices ds in
    let vals = quasi_values ds quasi in
    let replacement = Hashtbl.create 16 in
    List.iter
      (fun rows ->
        List.iter
          (fun c ->
            let lo, hi = range vals rows c in
            let v =
              if Float.equal lo hi then Dataset.get ds ~row:(List.hd rows) ~col:c
              else Value.interval lo (hi +. 1.0)
              (* +1: intervals are [lo, hi) and must cover hi itself. *)
            in
            List.iter (fun r -> Hashtbl.replace replacement (r, c) v) rows)
          quasi)
      parts;
    let rows =
      List.init (Dataset.nrows ds) (fun r ->
          List.mapi
            (fun c v ->
              match Hashtbl.find_opt replacement (r, c) with
              | Some v' -> v'
              | None -> v)
            (Dataset.row ds r))
    in
    Ok (Dataset.make ~attrs:(Dataset.attrs ds) ~rows)
