open Mdp_prelude

type policy = { sensitive : string; closeness : float; confidence : float }

type score = { record : int; risk : Frac.t; violation : bool }

type report = {
  fields_read : string list;
  policy : policy;
  scores : score list;
  violations : int;
}

let assess ds ~fields_read policy =
  let read_cols = List.map (Dataset.col_index ds) fields_read in
  let sens_col = Dataset.col_index ds policy.sensitive in
  let classes = Dataset.equivalence_classes ds ~by:read_cols in
  let scores = Array.make (Dataset.nrows ds) None in
  List.iter
    (fun cls ->
      let size = List.length cls in
      List.iter
        (fun r ->
          let v = Dataset.get ds ~row:r ~col:sens_col in
          let frequency =
            Listx.count
              (fun r' ->
                Value.close ~closeness:policy.closeness v
                  (Dataset.get ds ~row:r' ~col:sens_col))
              cls
          in
          let risk = Frac.make frequency size in
          scores.(r) <-
            Some { record = r; risk; violation = Frac.ge risk policy.confidence })
        cls)
    classes;
  let scores = List.map Option.get (Array.to_list scores) in
  {
    fields_read;
    policy;
    scores;
    violations = Listx.count (fun s -> s.violation) scores;
  }

let read_sets ds =
  let quasi =
    List.filter Attribute.is_quasi (Dataset.attrs ds)
    |> List.map (fun (a : Attribute.t) -> a.name)
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let tails = subsets rest in
      List.map (fun t -> x :: t) tails @ tails
  in
  let nonempty = List.filter (( <> ) []) (subsets quasi) in
  List.sort
    (fun a b -> Int.compare (List.length a) (List.length b))
    nonempty

let sweep ds policy =
  List.map (fun fields_read -> assess ds ~fields_read policy) (read_sets ds)

let max_risk report =
  List.fold_left
    (fun acc s -> if Frac.to_float s.risk > Frac.to_float acc then s.risk else acc)
    (Frac.make 0 1) report.scores

let pp_report ppf r =
  Format.fprintf ppf "fields read {%s}: %d/%d records violate (max risk %a)"
    (String.concat ", " r.fields_read)
    r.violations (List.length r.scores) Frac.pp (max_risk r)
