open Mdp_dataflow

type t = { rbac : Rbac.t; entries : Acl.entry list }

let make ?(rbac = Rbac.empty) entries = { rbac; entries }

let allows t ~diagram ~actor perm ~store field =
  match Diagram.find_actor diagram actor with
  | None -> false
  | Some a ->
    let matches (e : Acl.entry) =
      Acl.entry_matches t.rbac a perm ~store field e
    in
    List.exists (fun (e : Acl.entry) -> e.effect_ = Acl.Allow && matches e)
      t.entries
    && not
         (List.exists
            (fun (e : Acl.entry) -> e.effect_ = Acl.Deny && matches e)
            t.entries)

let grant t entry = { t with entries = t.entries @ [ entry ] }

let revoke t ~subject ~store ?fields perms =
  grant t (Acl.deny subject ~store ?fields perms)

let validate t diagram =
  let ctx = Mdp_prelude.Validate.create () in
  List.iter
    (fun (e : Acl.entry) ->
      (match e.subject with
      | Acl.Actor_subject a ->
        Mdp_prelude.Validate.require ctx
          (Diagram.find_actor diagram a <> None)
          "policy entry references unknown actor %s" a
      | Acl.Role_subject _ -> ());
      match Diagram.find_store diagram e.store with
      | None ->
        Mdp_prelude.Validate.errorf ctx
          "policy entry references unknown datastore %s" e.store
      | Some store -> (
        match e.selector with
        | Acl.All_fields -> ()
        | Acl.Fields fs ->
          List.iter
            (fun f ->
              Mdp_prelude.Validate.require ctx (Datastore.mem store f)
                "policy entry selects field %s absent from datastore %s"
                (Field.name f) e.store)
            fs))
    t.entries;
  Mdp_prelude.Validate.result ctx ()

type grant_tuple = {
  actor : string;
  perm : Permission.t;
  store : string;
  field : Field.t;
}

let concrete_grants t diagram =
  List.concat_map
    (fun (a : Actor.t) ->
      List.concat_map
        (fun (s : Datastore.t) ->
          List.concat_map
            (fun field ->
              List.filter_map
                (fun perm ->
                  if allows t ~diagram ~actor:a.id perm ~store:s.id field then
                    Some { actor = a.id; perm; store = s.id; field }
                  else None)
                Permission.all)
            (Datastore.fields s))
        diagram.Diagram.datastores)
    diagram.Diagram.actors

let diff ~before ~after diagram =
  let b = concrete_grants before diagram and a = concrete_grants after diagram in
  (* one membership table per side keeps this linear in the relation *)
  let table gs =
    let t = Hashtbl.create (List.length gs) in
    List.iter (fun g -> Hashtbl.replace t g ()) gs;
    t
  in
  let not_in gs g = not (Hashtbl.mem gs g) in
  (List.filter (not_in (table a)) b, List.filter (not_in (table b)) a)
