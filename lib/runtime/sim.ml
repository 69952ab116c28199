open Mdp_dataflow
module Core = Mdp_core
module Prng = Mdp_prelude.Prng

type snooper = { actor : string; store : string; probability : float }

type config = { seed : int; services : string list; snoopers : snooper list }

type sim_state = {
  rng : Prng.t;
  mutable clock : int;
  store_contents : (string, Field.t list ref) Hashtbl.t;
  actor_has : (string, Field.t list ref) Hashtbl.t;
  mutable rev_events : Event.t list;
}

let contents tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl key r;
    r

let learn set fields =
  set := Mdp_prelude.Listx.dedup (!set @ fields)

let tick st =
  st.clock <- st.clock + 1;
  st.clock

let emit st event = st.rev_events <- event :: st.rev_events

let flow_event u st (svc : Service.t) (flow : Flow.t) =
  ignore u;
  let time = tick st in
  let event =
    match (flow.src, flow.dst) with
    | Flow.User, Flow.Actor a ->
      learn (contents st.actor_has a) flow.fields;
      Event.make ~time ~kind:Core.Action.Collect ~actor:a ~fields:flow.fields
        ~service:svc.id ()
    | Flow.Actor a, Flow.Actor b ->
      learn (contents st.actor_has b) flow.fields;
      Event.make ~time ~kind:Core.Action.Disclose ~actor:a ~fields:flow.fields
        ~service:svc.id ~counterparty:b ()
    | Flow.Actor a, Flow.Store s ->
      let diagram_store =
        Option.get (Diagram.find_store (Core.Universe.diagram u) s)
      in
      let kind, stored =
        match diagram_store.Datastore.kind with
        | Datastore.Plain -> (Core.Action.Create, flow.fields)
        | Datastore.Anonymised ->
          (Core.Action.Anon, List.map Field.anon_of flow.fields)
      in
      learn (contents st.actor_has a) flow.fields;
      learn (contents st.store_contents s) stored;
      Event.make ~time ~kind ~actor:a ~fields:flow.fields ~store:s
        ~service:svc.id ()
    | Flow.Store s, Flow.Actor a ->
      (* The actor learns only what the store actually delivered. *)
      let present = !(contents st.store_contents s) in
      learn (contents st.actor_has a)
        (List.filter (fun f -> List.exists (Field.equal f) present) flow.fields);
      Event.make ~time ~kind:Core.Action.Read ~actor:a ~fields:flow.fields
        ~store:s ~service:svc.id ()
    | (Flow.User | Flow.Actor _ | Flow.Store _), _ ->
      (* Validated diagrams admit no other endpoint pattern. *)
      assert false
  in
  emit st event

let snoop_step u st (snooper : snooper) =
  if Prng.float st.rng 1.0 < snooper.probability then begin
    let store_i = Core.Universe.store_index u snooper.store in
    let actor_i = Core.Universe.actor_index u snooper.actor in
    let present = !(contents st.store_contents snooper.store) in
    let seen = !(contents st.actor_has snooper.actor) in
    let fresh =
      List.filter
        (fun f ->
          List.mem (Core.Universe.field_index u f)
            (Core.Universe.readable_by u ~actor:actor_i ~store:store_i)
          && not (List.exists (Field.equal f) seen))
        present
    in
    if fresh <> [] then begin
      learn (contents st.actor_has snooper.actor) fresh;
      emit st
        (Event.make ~time:(tick st) ~kind:Core.Action.Read
           ~actor:snooper.actor ~fields:fresh ~store:snooper.store ())
    end
  end

let run u config =
  Mdp_obs.Metrics.span "sim/run" @@ fun () ->
  let diagram = Core.Universe.diagram u in
  let st =
    {
      rng = Prng.create ~seed:config.seed;
      clock = 0;
      store_contents = Hashtbl.create 8;
      actor_has = Hashtbl.create 8;
      rev_events = [];
    }
  in
  (* A bad config entry is reported, not raised. *)
  let unknown =
    List.filter
      (fun id -> Diagram.find_service diagram id = None)
      config.services
  in
  let bad_snooper (sn : snooper) =
    if Diagram.find_actor diagram sn.actor = None then
      Some ("unknown snooper actor " ^ sn.actor)
    else if Diagram.find_store diagram sn.store = None then
      Some ("unknown snooper datastore " ^ sn.store)
    else if not (sn.probability >= 0.0 && sn.probability <= 1.0) then
      Some (Printf.sprintf "snooper probability %g not in [0,1]" sn.probability)
    else None
  in
  match (unknown, List.find_map bad_snooper config.snoopers) with
  | _ :: _, _ ->
    Error
      (Printf.sprintf "unknown service%s %s"
         (if List.length unknown > 1 then "s" else "")
         (String.concat ", " unknown))
  | [], Some e -> Error e
  | [], None ->
  (* Pending flow queues, one per requested service, consumed in order;
     the next service to step is drawn at random among the non-empty. *)
  let queues =
    List.map
      (fun id ->
        match Diagram.find_service diagram id with
        | Some svc -> (svc, ref svc.Service.flows)
        | None -> assert false)
      config.services
  in
  (* A queue is ready when its head flow's data is available: store-source
     flows need the store populated, actor-source disclosures need the
     actor to hold the fields. If nothing is ready the simulation steps an
     unready queue anyway — a real system would attempt and fail, and the
     monitor should see that attempt. *)
  let head_ready (_, q) =
    match !q with
    | [] -> false
    | (flow : Flow.t) :: _ -> (
      match flow.src with
      | Flow.User -> true
      | Flow.Actor a -> (
        let holds_all =
          let held = !(contents st.actor_has a) in
          List.for_all (fun f -> List.exists (Field.equal f) held) flow.fields
        in
        (* Mirror the generator: creating a plain record is authorship and
           needs no prior possession; anonymising and disclosing transform
           data the actor must already hold. *)
        match flow.dst with
        | Flow.Store s ->
          (match Diagram.store_kind diagram s with
          | Datastore.Plain -> true
          | Datastore.Anonymised -> holds_all)
        | Flow.User | Flow.Actor _ -> holds_all)
      | Flow.Store s ->
        let present = !(contents st.store_contents s) in
        List.for_all (fun f -> List.exists (Field.equal f) present) flow.fields)
  in
  let rec loop () =
    let pending = List.filter (fun (_, q) -> !q <> []) queues in
    match pending with
    | [] -> ()
    | _ ->
      let ready = List.filter head_ready pending in
      let svc, q =
        Prng.choose st.rng (if ready <> [] then ready else pending)
      in
      (match !q with
      | flow :: rest ->
        q := rest;
        flow_event u st svc flow
      | [] -> assert false);
      List.iter (snoop_step u st) config.snoopers;
      loop ()
  in
  loop ();
  let trace = List.rev st.rev_events in
  Trace.publish_metrics ~prefix:"sim" trace;
  Ok trace

let run_exn u config =
  match run u config with
  | Ok trace -> trace
  | Error msg -> invalid_arg ("Sim.run_exn: " ^ msg)
