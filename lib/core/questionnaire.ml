open Mdp_dataflow

type westin = Fundamentalist | Pragmatist | Unconcerned

let baseline = function
  | Fundamentalist -> 0.8
  | Pragmatist -> 0.5
  | Unconcerned -> 0.15

type concern = Not_concerned | Somewhat_concerned | Very_concerned

let concern_sensitivity = function
  | Not_concerned -> 0.1
  | Somewhat_concerned -> 0.5
  | Very_concerned -> 0.9

type answer = { field : Field.t; concern : concern }

let profile diagram westin ~agreed_services ~answers =
  let answered f =
    List.find_opt (fun a -> Field.equal a.field f) answers
  in
  let base_fields =
    List.filter (fun f -> not (Field.is_anon f)) (Diagram.all_fields diagram)
  in
  let from_fields =
    List.map
      (fun f ->
        match answered f with
        | Some a -> (f, concern_sensitivity a.concern)
        | None -> (f, baseline westin))
      base_fields
  in
  (* Explicit answers about anon variants are honoured too. *)
  let extra_anon =
    List.filter_map
      (fun a ->
        if Field.is_anon a.field then
          Some (a.field, concern_sensitivity a.concern)
        else None)
      answers
  in
  User_profile.make
    ~sensitivities:(from_fields @ extra_anon)
    ~agreed_services ()
