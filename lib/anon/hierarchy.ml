type t = { widths : float list }

let numeric ~widths () =
  if widths = [] then invalid_arg "Hierarchy.numeric: no widths";
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  if List.exists (fun w -> w <= 0.0) widths then
    invalid_arg "Hierarchy.numeric: non-positive width";
  if not (increasing widths) then
    invalid_arg "Hierarchy.numeric: widths must be strictly increasing";
  { widths }

let nlevels t = 1 + List.length t.widths

let bin ~width x =
  (* [0.0 +.] makes an input of -0.0 print as "0-…", not "-0-…". *)
  let lo = 0.0 +. (Float.floor (x /. width) *. width) in
  Value.interval lo (lo +. width)

let generalise t ~level v =
  let top = nlevels t in
  if level < 0 || level > top then invalid_arg "Hierarchy.generalise: bad level";
  if level = 0 then v
  else if level = top then Value.Suppressed
  else
    match Value.numeric v with
    | Some x -> bin ~width:(List.nth t.widths (level - 1)) x
    | None -> Value.Suppressed
