type node = User | Actor of string | Store of string

type action_kind = Collect | Disclose | Create | Anon | Read

type t = {
  order : int;
  src : node;
  dst : node;
  fields : Field.t list;
  purpose : string;
}

let equal_node a b =
  match (a, b) with
  | User, User -> true
  | Actor x, Actor y | Store x, Store y -> x = y
  | (User | Actor _ | Store _), _ -> false

let valid_endpoints src dst =
  match (src, dst) with
  | User, Actor _ | Actor _, Actor _ | Actor _, Store _ | Store _, Actor _ ->
    not (equal_node src dst)
  | _, User | User, Store _ | Store _, Store _ -> false

let make ~order ~src ~dst ~fields ~purpose =
  if order < 0 then invalid_arg "Flow.make: negative order";
  if fields = [] then invalid_arg "Flow.make: no fields";
  (match Mdp_prelude.Listx.find_duplicate Field.name fields with
  | Some f -> invalid_arg (Printf.sprintf "Flow.make: duplicate field %s" f)
  | None -> ());
  if not (valid_endpoints src dst) then
    invalid_arg "Flow.make: endpoint pattern denotes no privacy action";
  { order; src; dst; fields; purpose }

let classify ~store_kind t =
  match (t.src, t.dst) with
  | User, Actor _ -> Collect
  | Actor _, Actor _ -> Disclose
  | Actor _, Store s -> (
    match store_kind s with
    | Datastore.Plain -> Create
    | Datastore.Anonymised -> Anon)
  | Store _, Actor _ -> Read
  | (User | Actor _ | Store _), _ ->
    (* Unreachable: [make] rejects every other pattern. *)
    assert false

let node_name = function
  | User -> "User"
  | Actor a -> a
  | Store s -> s

let pp_node ppf n = Format.pp_print_string ppf (node_name n)


let pp ppf t =
  Format.fprintf ppf "%d: %a -> %a [%a] purpose %S" t.order pp_node t.src
    pp_node t.dst
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Field.pp)
    t.fields t.purpose
