open Mdp_dataflow

type t =
  | Never_identifies of { actor : string; field : Field.t }
  | Never_could_identify of { actor : string; field : Field.t }
  | Only_for_purposes of { field : Field.t; purposes : string list }
  | No_action_by of { actor : string; kind : Action.kind }
  | Max_disclosure_risk of Level.t

type violation = { requirement : t; witness : Action.t list }

(* A requirement is violated either at a state (predicate on privacy
   variables) or on a transition (predicate on the label). Both reduce to
   a shortest-path search; for transition requirements we search for the
   earliest reachable source state with an offending outgoing label and
   extend the witness by that label. *)

let state_violation lts pred =
  match
    Plts.path_to lts (fun s ->
        pred (Plts.state_data lts s : Config.t).Config.privacy)
  with
  | Some steps -> Some (List.map fst steps)
  | None -> None

let transition_violation lts pred =
  (* BFS over reachable states, checking outgoing labels in order. *)
  let reachable = Plts.reachable lts in
  let rec scan = function
    | [] -> None
    | s :: rest -> (
      match List.find_opt (fun (label, _) -> pred label) (Plts.successors lts s) with
      | Some (label, _) -> (
        match Plts.path_to lts (fun s' -> s' = s) with
        | Some steps -> Some (List.map fst steps @ [ label ])
        | None -> None)
      | None -> scan rest)
  in
  scan reachable

let touches field (label : Action.t) =
  List.exists (Field.equal field) label.fields

let violation_of ~annotate u lts requirement =
  let witness =
    match requirement with
    | Never_identifies { actor; field } ->
      state_violation lts (fun p -> Privacy_state.has u p ~actor ~field)
    | Never_could_identify { actor; field } ->
      state_violation lts (fun p -> Privacy_state.could u p ~actor ~field)
    | Only_for_purposes { field; purposes } ->
      transition_violation lts (fun label ->
          touches field label
          &&
          match label.Action.purpose with
          | Some p -> not (List.mem p purposes)
          | None -> true)
    | No_action_by { actor; kind } ->
      transition_violation lts (fun label ->
          label.Action.actor = actor && label.Action.kind = kind)
    | Max_disclosure_risk max_level ->
      transition_violation lts (fun label ->
          match (annotate label).Action.risk with
          | Some { level; _ } -> Level.compare level max_level > 0
          | None -> false)
  in
  Option.map
    (fun witness -> { requirement; witness = List.map annotate witness })
    witness

let kind_of_string = function
  | "collect" -> Some Action.Collect
  | "create" -> Some Action.Create
  | "read" -> Some Action.Read
  | "disclose" -> Some Action.Disclose
  | "anon" -> Some Action.Anon
  | "delete" -> Some Action.Delete
  | _ -> None

let of_spec spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "bad requirement %S (expected key=value)" spec)
  | Some i -> (
    let key = String.sub spec 0 i in
    let value = String.sub spec (i + 1) (String.length spec - i - 1) in
    let actor_field () =
      match String.split_on_char ':' value with
      | [ actor; field ] -> Ok (actor, Field.of_name field)
      | _ -> Error (Printf.sprintf "expected ACTOR:FIELD in %S" spec)
    in
    match key with
    | "never" ->
      Result.map
        (fun (actor, field) -> Never_identifies { actor; field })
        (actor_field ())
    | "nevercould" ->
      Result.map
        (fun (actor, field) -> Never_could_identify { actor; field })
        (actor_field ())
    | "noaction" -> (
      match String.split_on_char ':' value with
      | [ actor; kind ] -> (
        match kind_of_string kind with
        | Some kind -> Ok (No_action_by { actor; kind })
        | None -> Error (Printf.sprintf "unknown action kind in %S" spec))
      | _ -> Error (Printf.sprintf "expected ACTOR:KIND in %S" spec))
    | "purposes" -> (
      match String.split_on_char ':' value with
      | [ field; purposes ] ->
        Ok
          (Only_for_purposes
             {
               field = Field.of_name field;
               purposes = String.split_on_char ';' purposes;
             })
      | _ -> Error (Printf.sprintf "expected FIELD:p1;p2 in %S" spec))
    | "maxrisk" -> (
      match Level.of_string value with
      | Some level -> Ok (Max_disclosure_risk level)
      | None -> Error (Printf.sprintf "unknown level in %S" spec))
    | _ -> Error (Printf.sprintf "unknown requirement kind %S" key))

let check ~annotate u lts requirements =
  List.filter_map (violation_of ~annotate u lts) requirements

let holds ~annotate u lts requirement =
  violation_of ~annotate u lts requirement = None

let pp ppf = function
  | Never_identifies { actor; field } ->
    Format.fprintf ppf "%s never identifies %s" actor (Field.name field)
  | Never_could_identify { actor; field } ->
    Format.fprintf ppf "%s could never identify %s" actor (Field.name field)
  | Only_for_purposes { field; purposes } ->
    Format.fprintf ppf "%s only for purposes {%s}" (Field.name field)
      (String.concat ", " purposes)
  | No_action_by { actor; kind } ->
    Format.fprintf ppf "%s never performs %a" actor Action.pp_kind kind
  | Max_disclosure_risk level ->
    Format.fprintf ppf "no transition risk above %a" Level.pp level

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>VIOLATED: %a@,witness:@,  @[<v>%a@]@]" pp
    v.requirement
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Action.pp)
    v.witness
