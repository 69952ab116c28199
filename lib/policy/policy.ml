open Mdp_dataflow

type t = { rbac : Rbac.t; entries : Acl.entry list }

let make ?(rbac = Rbac.empty) entries = { rbac; entries }

let allows_at t ~diagram ~actor ~store =
  match Diagram.find_actor diagram actor with
  | None -> fun _ _ -> false
  | Some a ->
    (* only entries on this store naming this actor can match *)
    let entries =
      List.filter
        (fun (e : Acl.entry) ->
          e.store = store && Acl.subject_matches t.rbac a e.subject)
        t.entries
    in
    fun perm field ->
      let matches (e : Acl.entry) =
        List.exists (Permission.equal perm) e.perms
        && Acl.selector_matches e.selector field
      in
      List.exists (fun (e : Acl.entry) -> e.effect_ = Acl.Allow && matches e)
        entries
      && not
           (List.exists
              (fun (e : Acl.entry) -> e.effect_ = Acl.Deny && matches e)
              entries)

let allows t ~diagram ~actor perm ~store field =
  allows_at t ~diagram ~actor ~store perm field

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
          let allows = allows_at t ~diagram ~actor:a.id ~store:s.id in
          List.concat_map
            (fun field ->
              List.filter_map
                (fun perm ->
                  if allows perm field then
                    Some { actor = a.id; perm; store = s.id; field }
                  else None)
                Permission.all)
            (Datastore.fields s))
        diagram.Diagram.datastores)
    diagram.Diagram.actors

(* The grant list with a membership table: one per side keeps a diff
   linear in the relation. *)
type relation = {
  tuples : grant_tuple list;
  members : (grant_tuple, unit) Hashtbl.t;
}

let relation t diagram =
  let tuples = concrete_grants t diagram in
  let members = Hashtbl.create (List.length tuples) in
  List.iter (fun g -> Hashtbl.replace members g ()) tuples;
  { tuples; members }

let diff_relations ~before ~after =
  let not_in r g = not (Hashtbl.mem r.members g) in
  ( List.filter (not_in after) before.tuples,
    List.filter (not_in before) after.tuples )

let diff ~before ~after diagram =
  diff_relations ~before:(relation before diagram)
    ~after:(relation after diagram)
