type t =
  | Int of int
  | Float of float
  | Str of string
  | Interval of float * float
  | Suppressed

let interval lo hi =
  if not (lo < hi) then invalid_arg "Value.interval: requires lo < hi";
  Interval (lo, hi)

let numeric = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Str _ | Interval _ | Suppressed -> None

let midpoint = function
  | Interval (lo, hi) -> Some ((lo +. hi) /. 2.0)
  | v -> numeric v

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
