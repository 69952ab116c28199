type t = { id : string; roles : string list }

let make ?(roles = []) id =
  if id = "" then invalid_arg "Actor.make: empty id";
  (match Mdp_prelude.Listx.find_duplicate Fun.id roles with
  | Some r -> invalid_arg (Printf.sprintf "Actor.make: duplicate role %s" r)
  | None -> ());
  { id; roles }

let pp ppf t =
  match t.roles with
  | [] -> Format.pp_print_string ppf t.id
  | roles -> Format.fprintf ppf "%s[%s]" t.id (String.concat ", " roles)
