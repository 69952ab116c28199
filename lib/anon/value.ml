type t =
  | Int of int
  | Float of float
  | Str of string
  | Interval of float * float
  | Suppressed

let interval lo hi =
  if not (lo < hi) then invalid_arg "Value.interval: requires lo < hi";
  Interval (lo, hi)

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | Str x, Str y -> x = y
  | Interval (a1, b1), Interval (a2, b2) -> Float.equal a1 a2 && Float.equal b1 b2
  | Suppressed, Suppressed -> true
  | (Int _ | Float _ | Str _ | Interval _ | Suppressed), _ -> false

let numeric = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Str _ | Interval _ | Suppressed -> None

let midpoint = function
  | Interval (lo, hi) -> Some ((lo +. hi) /. 2.0)
  | v -> numeric v

let close ~closeness a b =
  match (numeric a, numeric b) with
  | Some x, Some y -> Float.abs (x -. y) <= closeness
  | None, None -> (
    match (a, b) with
    | Suppressed, _ | _, Suppressed -> false
    | _ -> equal a b)
  | Some _, None | None, Some _ -> false

let to_string = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f then Printf.sprintf "%.0f" f
    else Printf.sprintf "%g" f
  | Str s -> s
  | Interval (lo, hi) ->
    let fmt v =
      if Float.is_integer v then Printf.sprintf "%.0f" v
      else Printf.sprintf "%g" v
    in
    Printf.sprintf "%s-%s" (fmt lo) (fmt hi)
  | Suppressed -> "*"
