open Mdp_dataflow
module Acl = Mdp_policy.Acl
module Permission = Mdp_policy.Permission

let fields_str fields = String.concat " " (List.map Field.name fields)

let node_str = function
  | Flow.User -> "User"
  | Flow.Actor a -> a
  | Flow.Store s -> s

let to_string { Parser.diagram; policy; placement } =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (a : Actor.t) ->
      match a.roles with
      | [] -> addf "actor %s\n" a.id
      | roles -> addf "actor %s roles [%s]\n" a.id (String.concat " " roles))
    diagram.Diagram.actors;
  addf "\n";
  List.iter
    (fun (d : Datastore.t) ->
      addf "%s %s {\n"
        (match d.kind with
        | Datastore.Plain -> "store"
        | Datastore.Anonymised -> "anonstore")
        d.id;
      List.iter
        (fun (s : Schema.t) ->
          addf "  schema %s { %s }\n" s.id (fields_str s.fields))
        d.schemas;
      addf "}\n")
    diagram.Diagram.datastores;
  addf "\n";
  List.iter
    (fun (s : Service.t) ->
      addf "service %s {\n" s.id;
      List.iter
        (fun (f : Flow.t) ->
          addf "  %d: %s -> %s [%s] %S\n" f.order (node_str f.src)
            (node_str f.dst) (fields_str f.fields) f.purpose)
        s.flows;
      addf "}\n")
    diagram.Diagram.services;
  addf "\n";
  List.iter
    (fun (senior, junior) -> addf "hierarchy %s > %s\n" senior junior)
    (Mdp_policy.Rbac.hierarchy policy.Mdp_policy.Policy.rbac);
  List.iter
    (fun (e : Acl.entry) ->
      let effect_ = match e.effect_ with Acl.Allow -> "allow" | Acl.Deny -> "deny" in
      let subject =
        match e.subject with
        | Acl.Actor_subject a -> "actor:" ^ a
        | Acl.Role_subject r -> "role:" ^ r
      in
      let perms =
        String.concat " " (List.map Permission.to_string e.perms)
      in
      let fields =
        match e.selector with
        | Acl.All_fields -> ""
        | Acl.Fields fs -> Printf.sprintf " [%s]" (fields_str fs)
      in
      addf "%s %s %s on %s%s\n" effect_ subject perms e.store fields)
    policy.Mdp_policy.Policy.entries;
  (match placement with
  | None -> ()
  | Some (p : Parser.placement) ->
    addf "\n";
    List.iter
      (fun (n : Parser.node_decl) -> addf "node %s region %s\n" n.node n.region)
      p.nodes;
    List.iter
      (fun (a, node) -> addf "place actor:%s on %s\n" a node)
      p.actor_nodes;
    List.iter
      (fun (st, node) -> addf "place store:%s on %s\n" st node)
      p.store_nodes);
  Buffer.contents buf
