type t = {
  impact_thresholds : float * float;
  likelihood_thresholds : float * float;
  table : Level.t array array;
}

let default_table =
  [|
    [| Level.Low; Level.Low; Level.Medium |];
    [| Level.Low; Level.Medium; Level.High |];
    [| Level.Medium; Level.High; Level.High |];
  |]

let make ?(impact_thresholds = (0.4, 0.7)) ?(likelihood_thresholds = (0.1, 0.5))
    ?(table = default_table) () =
  let check (a, b) what =
    if not (0.0 < a && a < b) then
      invalid_arg (Printf.sprintf "Risk_matrix.make: bad %s thresholds" what)
  in
  check impact_thresholds "impact";
  check likelihood_thresholds "likelihood";
  if Array.length table <> 3 || Array.exists (fun r -> Array.length r <> 3) table
  then invalid_arg "Risk_matrix.make: table must be 3x3";
  { impact_thresholds; likelihood_thresholds; table }

let default = make ()

let categorise (a, b) x =
  if x <= 0.0 then Level.None_
  else if x < a then Level.Low
  else if x < b then Level.Medium
  else Level.High

let impact_level t x = categorise t.impact_thresholds x
let likelihood_level t x = categorise t.likelihood_thresholds x

let index = function
  | Level.Low -> 0
  | Level.Medium -> 1
  | Level.High -> 2
  | Level.None_ -> invalid_arg "Risk_matrix: None_ has no table index"

let level t ~impact ~likelihood =
  match (impact, likelihood) with
  | Level.None_, _ | _, Level.None_ -> Level.None_
  | _ -> t.table.(index impact).(index likelihood)

let assess t ~impact ~likelihood =
  let i = impact_level t impact and l = likelihood_level t likelihood in
  { Action.impact = i; likelihood = l; level = level t ~impact:i ~likelihood:l }
