type t = { num : int; den : int }

let make num den =
  if den <= 0 then invalid_arg "Frac.make: non-positive denominator";
  if num < 0 then invalid_arg "Frac.make: negative numerator";
  { num; den }

let to_float { num; den } = float_of_int num /. float_of_int den

let ge { num; den } x = float_of_int num >= x *. float_of_int den

let to_string { num; den } = Printf.sprintf "%d/%d" num den

let pp ppf f = Format.pp_print_string ppf (to_string f)
