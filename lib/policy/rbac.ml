open Mdp_prelude

type t = { hierarchy : (string * string) list }

let juniors t role =
  let rec expand acc frontier =
    match frontier with
    | [] -> acc
    | r :: rest ->
      let direct =
        List.filter_map
          (fun (senior, junior) -> if senior = r then Some junior else None)
          t.hierarchy
      in
      let fresh = List.filter (fun j -> not (List.mem j acc)) direct in
      expand (acc @ fresh) (rest @ fresh)
  in
  expand [] [ role ]

let create ?(hierarchy = []) () =
  let t = { hierarchy } in
  List.iter
    (fun (senior, _) ->
      if List.mem senior (juniors t senior) then
        invalid_arg
          (Printf.sprintf "Rbac.create: cycle through role %s" senior))
    hierarchy;
  t

let empty = { hierarchy = [] }

let effective_roles t (actor : Mdp_dataflow.Actor.t) =
  Listx.dedup (actor.roles @ List.concat_map (juniors t) actor.roles)

let holds_role t actor role = List.mem role (effective_roles t actor)

let hierarchy t = t.hierarchy
