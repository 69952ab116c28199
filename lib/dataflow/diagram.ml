open Mdp_prelude

type t = {
  actors : Actor.t list;
  datastores : Datastore.t list;
  services : Service.t list;
}

let find_actor t id = List.find_opt (fun (a : Actor.t) -> a.id = id) t.actors
let find_store t id = List.find_opt (fun (d : Datastore.t) -> d.id = id) t.datastores
let find_service t id = List.find_opt (fun (s : Service.t) -> s.id = id) t.services

let store_kind t id =
  match find_store t id with
  | Some d -> d.kind
  | None -> raise Not_found

let classify t flow = Flow.classify ~store_kind:(store_kind t) flow

let validate_ids ctx t =
  (match Listx.find_duplicate (fun (a : Actor.t) -> a.id) t.actors with
  | Some id -> Validate.errorf ctx "duplicate actor id %s" id
  | None -> ());
  (match Listx.find_duplicate (fun (d : Datastore.t) -> d.id) t.datastores with
  | Some id -> Validate.errorf ctx "duplicate datastore id %s" id
  | None -> ());
  (match Listx.find_duplicate (fun (s : Service.t) -> s.id) t.services with
  | Some id -> Validate.errorf ctx "duplicate service id %s" id
  | None -> ());
  List.iter
    (fun (a : Actor.t) ->
      Validate.require ctx
        (find_store t a.id = None)
        "id %s names both an actor and a datastore" a.id;
      Validate.require ctx (a.id <> "User")
        "actor id User is reserved for the data subject")
    t.actors;
  List.iter
    (fun (d : Datastore.t) ->
      Validate.require ctx (d.id <> "User")
        "datastore id User is reserved for the data subject")
    t.datastores;
  (* An event trace line writes "-" for an absent store, service or
     counterparty, so no id may be "-". *)
  Validate.require ctx
    (List.for_all (fun (a : Actor.t) -> a.id <> "-") t.actors
    && List.for_all (fun (d : Datastore.t) -> d.id <> "-") t.datastores
    && List.for_all (fun (s : Service.t) -> s.id <> "-") t.services)
    "id - is reserved for \"none\" in event traces"

let validate_flow ctx t ~service (flow : Flow.t) =
  let where = Printf.sprintf "service %s, flow %d" service flow.order in
  let check_node = function
    | Flow.User -> true
    | Flow.Actor a ->
      let ok = find_actor t a <> None in
      Validate.require ctx ok "%s: unknown actor %s" where a;
      ok
    | Flow.Store s ->
      let ok = find_store t s <> None in
      Validate.require ctx ok "%s: unknown datastore %s" where s;
      ok
  in
  if check_node flow.src && check_node flow.dst then
    match classify t flow with
    | Flow.Collect ->
      List.iter
        (fun f ->
          Validate.require ctx
            (not (Field.is_anon f))
            "%s: collect of pseudonymised field %a" where Field.pp f)
        flow.fields
    | Flow.Disclose -> ()
    | Flow.Create -> (
      match flow.dst with
      | Flow.Store s ->
        let store = Option.get (find_store t s) in
        List.iter
          (fun f ->
            Validate.require ctx (Datastore.mem store f)
              "%s: field %a not in the schemas of datastore %s" where
              Field.pp f s)
          flow.fields
      | Flow.User | Flow.Actor _ -> assert false)
    | Flow.Anon -> (
      match flow.dst with
      | Flow.Store s ->
        let store = Option.get (find_store t s) in
        List.iter
          (fun f ->
            Validate.require ctx
              (not (Field.is_anon f))
              "%s: anon flow must carry base fields, got %a" where Field.pp f;
            Validate.require ctx
              (Datastore.mem store (Field.anon_of f))
              "%s: anonymised store %s lacks schema field %a" where s
              Field.pp (Field.anon_of f))
          flow.fields
      | Flow.User | Flow.Actor _ -> assert false)
    | Flow.Read -> (
      match flow.src with
      | Flow.Store s ->
        let store = Option.get (find_store t s) in
        List.iter
          (fun f ->
            Validate.require ctx (Datastore.mem store f)
              "%s: field %a not in the schemas of datastore %s" where
              Field.pp f s;
            if store.kind = Datastore.Anonymised then
              Validate.require ctx (Field.is_anon f)
                "%s: read from anonymised store %s must carry anon fields, got %a"
                where s Field.pp f)
          flow.fields
      | Flow.User | Flow.Actor _ -> assert false)

let make ~actors ~datastores ~services =
  let t = { actors; datastores; services } in
  let ctx = Validate.create () in
  validate_ids ctx t;
  List.iter
    (fun (s : Service.t) ->
      List.iter (validate_flow ctx t ~service:s.id) s.flows)
    services;
  Validate.result ctx t

let make_exn ~actors ~datastores ~services =
  match make ~actors ~datastores ~services with
  | Ok t -> t
  | Error msgs ->
    invalid_arg ("Diagram.make_exn:\n" ^ String.concat "\n" msgs)

let all_flows t =
  List.concat_map
    (fun (s : Service.t) -> List.map (fun f -> (s, f)) s.flows)
    t.services

let all_fields t =
  let from_flows =
    List.concat_map
      (fun ((_, flow) : Service.t * Flow.t) ->
        let anon_variants =
          match classify t flow with
          | Flow.Anon -> List.map Field.anon_of flow.fields
          | Flow.Collect | Flow.Disclose | Flow.Create | Flow.Read -> []
        in
        flow.fields @ anon_variants)
      (all_flows t)
  in
  let from_schemas = List.concat_map Datastore.fields t.datastores in
  Listx.dedup (from_flows @ from_schemas)

let pp ppf t =
  Format.fprintf ppf "@[<v>actors: %a@,stores:@,  @[<v>%a@]@,%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Actor.pp)
    t.actors
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Datastore.pp)
    t.datastores
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Service.pp)
    t.services
