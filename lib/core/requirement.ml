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
   a shortest-path search. State ids are breadth-first order, so the
   first violating state is the lowest id satisfying the predicate, and
   for transition requirements the earliest reachable source state is
   the lowest id with an offending outgoing label; the witness is that
   source's tree path extended by the row's first offending label. *)

let state_violation lts pred =
  Option.map (List.map fst)
    (Plts.path_to lts (fun s ->
         pred (Plts.state_data lts s : Config.t).Config.privacy))

let transition_violation lts pred =
  let labels = Option.get (Plts.interned_labels lts) in
  let offends = Array.map pred labels in
  let exception Found of Plts.state_id * int in
  match
    Plts.iter_states lts (fun s ->
        Plts.iter_successors_lid lts s (fun lid _ ->
            if offends.(lid) then raise (Found (s, lid))))
  with
  | () -> None
  | exception Found (src, lid) ->
    Option.map
      (fun steps -> List.map fst steps @ [ labels.(lid) ])
      (Plts.path_to lts (fun s -> s = src))

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
