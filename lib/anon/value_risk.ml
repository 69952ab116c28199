open Mdp_prelude

type policy = { sensitive : string; closeness : float; confidence : float }

type score = { record : int; risk : Frac.t; violation : bool }

type report = {
  fields_read : string list;
  policy : policy;
  scores : score list;
  violations : int;
}

let check_policy p =
  if not (Float.is_finite p.closeness && p.closeness >= 0.0) then
    Error
      (Printf.sprintf "value-risk policy: closeness %g must be finite and >= 0"
         p.closeness)
  else if not (p.confidence >= 0.0 && p.confidence <= 1.0) then
    Error
      (Printf.sprintf "value-risk policy: confidence %g must be within [0,1]"
         p.confidence)
  else Ok ()

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

let max_risk report =
  List.fold_left
    (fun acc s -> if Frac.to_float s.risk > Frac.to_float acc then s.risk else acc)
    (Frac.make 0 1) report.scores

let pp_report ppf r =
  Format.fprintf ppf "fields read {%s}: %d/%d records violate (max risk %a)"
    (String.concat ", " r.fields_read)
    r.violations (List.length r.scores) Frac.pp (max_risk r)
