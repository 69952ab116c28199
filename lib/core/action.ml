open Mdp_dataflow

type kind = Collect | Create | Read | Disclose | Anon | Delete

type provenance =
  | From_flow of { service : string; order : int }
  | Potential

type risk = { impact : Level.t; likelihood : Level.t; level : Level.t }

type t = {
  kind : kind;
  fields : Field.t list;
  schema : string option;
  store : string option;  (** Datastore the action touches, when any. *)
  actor : string;
  purpose : string option;
  provenance : provenance;
  risk : risk option;
}

let make ?schema ?store ?purpose ?risk ~kind ~fields ~actor provenance =
  if fields = [] then invalid_arg "Action.make: no fields";
  { kind; fields; schema; store; actor; purpose; provenance; risk }

let with_risk t risk = { t with risk = Some risk }

let findable a = a.kind = Read

let equal a b =
  a == b
  || a.kind = b.kind
     && List.length a.fields = List.length b.fields
     && List.for_all2 Field.equal a.fields b.fields
     && a.schema = b.schema && a.store = b.store && a.actor = b.actor
     && a.purpose = b.purpose
     && a.provenance = b.provenance && a.risk = b.risk

(* [equal] is structural equality, so the generic structural hash is
   consistent with it. Deep limits are raised well past the default so
   actions differing only in a late field (actor, provenance) do not all
   collide. *)
let hash t = Hashtbl.hash_param 64 256 t

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Collect -> "collect"
    | Create -> "create"
    | Read -> "read"
    | Disclose -> "disclose"
    | Anon -> "anon"
    | Delete -> "delete")

let pp_risk ppf { impact; likelihood; level } =
  Format.fprintf ppf "risk=%a (impact %a, likelihood %a)" Level.pp level
    Level.pp impact Level.pp likelihood

let pp ppf t =
  Format.fprintf ppf "%a(%s%s) by %s" pp_kind t.kind
    (String.concat ", " (List.map Field.name t.fields))
    (match t.schema with Some s -> ":" ^ s | None -> "")
    t.actor;
  (match t.provenance with
  | From_flow { service; order } -> Format.fprintf ppf " [%s#%d]" service order
  | Potential -> Format.fprintf ppf " [potential]");
  (match t.purpose with
  | Some p -> Format.fprintf ppf " for %S" p
  | None -> ());
  match t.risk with
  | Some r -> Format.fprintf ppf " %a" pp_risk r
  | None -> ()
