type pending_flow = {
  service : string;
  order : int option;
  purpose : string option;
  src : string;
  dst : string;
  fields : string list;
  line : int option;
}

type t = {
  mutable rev_actors : Actor.t list;
  mutable rev_stores : Datastore.t list;
  mutable rev_flows : pending_flow list;
}

let create () = { rev_actors = []; rev_stores = []; rev_flows = [] }

let actor t ?roles id = t.rev_actors <- Actor.make ?roles id :: t.rev_actors

let add_store t kind id schemas =
  let schemas =
    List.map
      (fun (sid, fields) ->
        Schema.make ~id:sid ~fields:(List.map Field.of_name fields))
      schemas
  in
  t.rev_stores <- Datastore.make ~kind ~id ~schemas () :: t.rev_stores

let plain_store t id ~schemas = add_store t Datastore.Plain id schemas
let anon_store t id ~schemas = add_store t Datastore.Anonymised id schemas

let flow t ~service ?order ?purpose ?line ~src ~dst fields =
  t.rev_flows <- { service; order; purpose; src; dst; fields; line } :: t.rev_flows

let resolve_node t s =
  if s = "User" then Flow.User
  else if List.exists (fun (d : Datastore.t) -> d.id = s) t.rev_stores then
    Flow.Store s
  else Flow.Actor s

let build t =
  let actors = List.rev t.rev_actors in
  let datastores = List.rev t.rev_stores in
  let pending = List.rev t.rev_flows in
  let errors = ref [] in
  let services =
    Mdp_prelude.Listx.group_by ~key:(fun f -> f.service) pending
    |> List.map (fun (sid, flows) ->
           let next = ref 0 and orders = ref [] in
           let flow f =
             incr next;
             let order = Option.value f.order ~default:!next in
             next := max !next order;
             try
               if List.mem order !orders then
                 invalid_arg
                   (Printf.sprintf "duplicate flow order %d in service %s" order sid);
               orders := order :: !orders;
               Some
                 (Flow.make ~order ~src:(resolve_node t f.src)
                    ~dst:(resolve_node t f.dst)
                    ~fields:(List.map Field.of_name f.fields)
                    ~purpose:(Option.value f.purpose ~default:sid))
             with Invalid_argument msg ->
               let at = Option.fold ~none:"" ~some:(Printf.sprintf "line %d: ") f.line in
               errors := (at ^ msg) :: !errors;
               None
           in
           (sid, List.filter_map flow flows))
  in
  match List.rev !errors with
  | [] ->
    Diagram.make ~actors ~datastores
      ~services:(List.map (fun (id, flows) -> Service.make ~id ~flows) services)
  | msgs -> Error msgs

let build_exn t =
  match build t with
  | Ok d -> d
  | Error msgs -> invalid_arg ("Builder.build_exn:\n" ^ String.concat "\n" msgs)
