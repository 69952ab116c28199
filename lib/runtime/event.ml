open Mdp_dataflow

type t = {
  time : int;
  kind : Mdp_core.Action.kind;
  actor : string;
  fields : Field.t list;
  store : string option;
  service : string option;
  counterparty : string option;
}

let make ~time ~kind ~actor ~fields ?store ?service ?counterparty () =
  if fields = [] then invalid_arg "Event.make: no fields";
  { time; kind; actor; fields; store; service; counterparty }

let fields_equal a b =
  let norm l = List.sort_uniq Field.compare l in
  let na = norm a and nb = norm b in
  List.length na = List.length nb && List.for_all2 Field.equal na nb

let kind_to_string k = Format.asprintf "%a" Mdp_core.Action.pp_kind k

let kind_of_string = function
  | "collect" -> Some Mdp_core.Action.Collect
  | "create" -> Some Mdp_core.Action.Create
  | "read" -> Some Mdp_core.Action.Read
  | "disclose" -> Some Mdp_core.Action.Disclose
  | "anon" -> Some Mdp_core.Action.Anon
  | "delete" -> Some Mdp_core.Action.Delete
  | _ -> None

let opt = function Some s -> s | None -> "-"

let pp ppf t =
  Format.fprintf ppf "t=%d %s by %s [%s]%s%s%s" t.time (kind_to_string t.kind)
    t.actor
    (String.concat ", " (List.map Field.name t.fields))
    (match t.store with Some s -> " store " ^ s | None -> "")
    (match t.service with Some s -> " in " ^ s | None -> "")
    (match t.counterparty with Some s -> " to " ^ s | None -> "")

let to_line t =
  Printf.sprintf "%d %s %s %s %s %s %s" t.time (kind_to_string t.kind) t.actor
    (String.concat "," (List.map Field.name t.fields))
    (opt t.store) (opt t.service) (opt t.counterparty)

(* [Field.of_name] rejects an empty or blank name: "Name,,DateOfBirth"
   and "," are malformed field lists, not a reason to raise. *)
let field_list s =
  match List.map Field.of_name (String.split_on_char ',' s) with
  | fields -> Ok fields
  | exception Invalid_argument _ -> Error ("bad field list: " ^ s)

let of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ time; kind; actor; fields; store; service; counterparty ] -> (
    let parse_opt = function "-" -> None | s -> Some s in
    match (int_of_string_opt time, kind_of_string kind, field_list fields) with
    | None, _, _ -> Error ("bad timestamp: " ^ time)
    | _, None, _ -> Error ("bad action kind: " ^ kind)
    | _, _, Error e -> Error e
    | Some time, Some kind, Ok fields ->
      Ok
        {
          time;
          kind;
          actor;
          fields;
          store = parse_opt store;
          service = parse_opt service;
          counterparty = parse_opt counterparty;
        })
  | _ -> Error ("malformed event line: " ^ line)
