open Mdp_dataflow
module Core = Mdp_core
module Permission = Mdp_policy.Permission

type decision = Allowed of Event.t | Denied of string

let check_store u (event : Event.t) perm ~fields_written =
  match event.store with
  | None ->
    Denied
      (Format.asprintf "%a event without a datastore" Core.Action.pp_kind
         event.kind)
  | Some store ->
    let diagram = Core.Universe.diagram u and policy = Core.Universe.policy u in
    let requested = fields_written event.fields in
    (* A field the store's schemas do not hold is never permitted, even
       under an ACL entry that selects all fields. *)
    let held =
      match Diagram.find_store diagram store with
      | Some ds -> Datastore.mem ds
      | None -> fun _ -> false
    in
    let permitted =
      List.filter
        (fun f ->
          held f
          && Mdp_policy.Policy.allows policy ~diagram ~actor:event.actor perm
               ~store f)
        requested
    in
    if permitted = [] then
      Denied
        (Printf.sprintf "%s may not %s any of [%s] in %s" event.actor
           (Permission.to_string perm)
           (String.concat ", " (List.map Field.name requested))
           store)
    else
      (* Report the event in the caller's field space (base fields for
         anon events), narrowed to what was permitted. *)
      let kept =
        List.filter
          (fun f -> List.exists (Field.equal (fields_written [ f ] |> List.hd)) permitted)
          event.fields
      in
      Allowed { event with Event.fields = kept }

let decide u (event : Event.t) =
  match event.kind with
  | Core.Action.Collect | Core.Action.Disclose -> Allowed event
  | Core.Action.Read -> check_store u event Permission.Read ~fields_written:Fun.id
  | Core.Action.Create ->
    check_store u event Permission.Write ~fields_written:Fun.id
  | Core.Action.Anon ->
    check_store u event Permission.Write
      ~fields_written:(List.map Field.anon_of)
  | Core.Action.Delete ->
    check_store u event Permission.Delete ~fields_written:Fun.id
