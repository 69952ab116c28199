(* The naive §III-B value-risk engine, the oracle
   [Mdp_anon.Columnar.value_risk_assess] and [value_risk_sweep] are
   checked against: each record's risk is the share of its class whose
   sensitive value is close to its own, counted pair by pair. *)

open Mdp_anon
open Mdp_prelude

(* The paper's Table I "close enough" test: numeric values within
   [closeness] of each other; other values equal ([Int] and [Float]
   are numeric, so they never reach the second case); [Suppressed] is
   close to nothing, not even itself. *)
let close ~closeness a b =
  match (Value.numeric a, Value.numeric b) with
  | Some x, Some y -> Float.abs (x -. y) <= closeness
  | None, None -> (
    match (a, b) with
    | Value.Str x, Value.Str y -> x = y
    | Value.Interval (a1, b1), Value.Interval (a2, b2) ->
      Float.equal a1 a2 && Float.equal b1 b2
    | _ -> false)
  | Some _, None | None, Some _ -> false

let assess ds ~fields_read (policy : Value_risk.policy) =
  let read_cols = List.map (Dataset.col_index ds) fields_read in
  let sens_col = Dataset.col_index ds policy.sensitive in
  let classes = Mdp_release.Kanonymity.classes_by ds ~by:read_cols in
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
                close ~closeness:policy.closeness v
                  (Dataset.get ds ~row:r' ~col:sens_col))
              cls
          in
          let risk = Frac.make frequency size in
          scores.(r) <-
            Some
              {
                Value_risk.record = r;
                risk;
                violation = Frac.ge risk policy.confidence;
              })
        cls)
    classes;
  let scores = List.map Option.get (Array.to_list scores) in
  {
    Value_risk.fields_read;
    policy;
    scores;
    violations = Listx.count (fun (s : Value_risk.score) -> s.violation) scores;
  }

let sweep ds policy =
  List.map (fun fields_read -> assess ds ~fields_read policy) (Value_risk.read_sets ds)
