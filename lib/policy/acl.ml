open Mdp_dataflow

type subject = Actor_subject of string | Role_subject of string

type field_selector = All_fields | Fields of Field.t list

type effect_ = Allow | Deny

type entry = {
  effect_ : effect_;
  subject : subject;
  store : string;
  selector : field_selector;
  perms : Permission.t list;
}

let make effect_ subject ~store ?fields perms =
  if perms = [] then invalid_arg "Acl: entry with no permissions";
  let selector =
    match fields with
    | None -> All_fields
    | Some [] -> invalid_arg "Acl: empty field selection"
    | Some fs -> Fields fs
  in
  { effect_; subject; store; selector; perms }

let allow subject ~store ?fields perms = make Allow subject ~store ?fields perms
let deny subject ~store ?fields perms = make Deny subject ~store ?fields perms

let selector_matches selector f =
  match selector with
  | All_fields -> true
  | Fields fs -> List.exists (Field.equal f) fs

let subject_matches rbac (actor : Actor.t) = function
  | Actor_subject id -> id = actor.id
  | Role_subject role -> Rbac.holds_role rbac actor role
