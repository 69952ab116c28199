open Mdp_dataflow
module Core = Mdp_core

type node = { id : string; region : string }

type t = {
  universe : Core.Universe.t;
  actor_nodes : (string * node) list;
  store_nodes : (string * node) list;
}

let create ~nodes ~actors ~stores universe =
  let ctx = Mdp_prelude.Validate.create () in
  (match Mdp_prelude.Listx.find_duplicate (fun n -> n.id) nodes with
  | Some id -> Mdp_prelude.Validate.errorf ctx "duplicate node %s" id
  | None -> ());
  let find_node id = List.find_opt (fun n -> n.id = id) nodes in
  let diagram = Core.Universe.diagram universe in
  let place what declared placed =
    List.filter_map
      (fun id ->
        match List.assoc_opt id placed with
        | None ->
          Mdp_prelude.Validate.errorf ctx "%s %s is not placed on any node"
            what id;
          None
        | Some node_id -> (
          match find_node node_id with
          | None ->
            Mdp_prelude.Validate.errorf ctx "%s %s placed on unknown node %s"
              what id node_id;
            None
          | Some node -> Some (id, node)))
      declared
  in
  let actor_nodes =
    place "actor"
      (List.map (fun (a : Actor.t) -> a.id) diagram.Diagram.actors)
      actors
  in
  let store_nodes =
    place "datastore"
      (List.map (fun (d : Datastore.t) -> d.id) diagram.Diagram.datastores)
      stores
  in
  Mdp_prelude.Validate.result ctx { universe; actor_nodes; store_nodes }

let node_of_actor t id = List.assoc id t.actor_nodes
let node_of_store t id = List.assoc id t.store_nodes

type transfer = {
  action : Core.Action.t;
  from_node : node option;
  to_node : node;
  cross_region : bool;
}

let endpoints t (label : Core.Action.t) =
  (* (from, to) nodes of the data movement this action denotes. *)
  match label.Core.Action.kind with
  | Core.Action.Collect -> Some (None, node_of_actor t label.actor)
  | Core.Action.Disclose -> (
    (* actor field is the discloser; the receiver is not in the label, so
       disclose transfers are derived from flow provenance when possible
       and otherwise skipped. *)
    match label.Core.Action.provenance with
    | Core.Action.From_flow { service; order } -> (
      let diagram = Core.Universe.diagram t.universe in
      match Diagram.find_service diagram service with
      | None -> None
      | Some svc -> (
        match Service.flow_with_order svc order with
        | Some { Flow.dst = Flow.Actor receiver; _ } ->
          Some
            ( Some (node_of_actor t label.actor),
              node_of_actor t receiver )
        | Some _ | None -> None))
    | Core.Action.Potential -> None)
  | Core.Action.Create | Core.Action.Anon ->
    Option.map
      (fun store -> (Some (node_of_actor t label.actor), node_of_store t store))
      label.Core.Action.store
  | Core.Action.Read | Core.Action.Delete ->
    Option.map
      (fun store -> (Some (node_of_store t store), node_of_actor t label.actor))
      label.Core.Action.store

let transfers t lts =
  let seen = Hashtbl.create 32 in
  let acc = ref [] in
  Core.Plts.iter_transitions lts (fun tr ->
      let label = tr.Core.Plts.label in
      let key = Format.asprintf "%a" Core.Action.pp label in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        match endpoints t label with
        | None -> ()
        | Some (from_node, to_node) ->
          let moves =
            match from_node with
            | None -> true (* device -> service is always a transfer *)
            | Some f -> f.id <> to_node.id
          in
          if moves then
            acc :=
              {
                action = label;
                from_node;
                to_node;
                cross_region =
                  (match from_node with
                  | None -> false
                  | Some f -> f.region <> to_node.region);
              }
              :: !acc
      end);
  List.rev !acc

let risky_transfers t lts profile =
  List.filter
    (fun tr ->
      tr.cross_region
      && List.exists
           (fun f -> Core.User_profile.sensitivity profile f > 0.0)
           tr.action.Core.Action.fields
      && (* transfers within the subject's agreed services are consented;
            the concern is everything else *)
      match tr.action.Core.Action.provenance with
      | Core.Action.From_flow { service; _ } ->
        not (Core.User_profile.agrees_to profile service)
      | Core.Action.Potential -> true)
    (transfers t lts)


let pp_transfer ppf tr =
  Format.fprintf ppf "%s%s/%s: %a"
    (match tr.from_node with
    | None -> "subject-device -> "
    | Some f -> Printf.sprintf "%s/%s -> " f.id f.region)
    tr.to_node.id tr.to_node.region Core.Action.pp tr.action;
  if tr.cross_region then Format.fprintf ppf "  [CROSS-REGION]"
