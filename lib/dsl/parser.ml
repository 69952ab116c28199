open Mdp_dataflow
module Acl = Mdp_policy.Acl
module Permission = Mdp_policy.Permission

type node_decl = { node : string; region : string }

type placement = {
  nodes : node_decl list;
  actor_nodes : (string * string) list;
  store_nodes : (string * string) list;
}

type model = {
  diagram : Mdp_dataflow.Diagram.t;
  policy : Mdp_policy.Policy.t;
  placement : placement option;
}

exception Syntax of string

type state = {
  tokens : Token.located array;
  mutable pos : int;
  builder : Builder.t;
  mutable rev_hierarchy : (string * string) list;
  mutable rev_entries : Acl.entry list;
  mutable rev_nodes : node_decl list;
  mutable rev_actor_nodes : (string * string) list;
  mutable rev_store_nodes : (string * string) list;
}

let peek st = st.tokens.(st.pos).Token.token
let line st = st.tokens.(st.pos).Token.line
let advance st = st.pos <- st.pos + 1

let fail st fmt =
  Printf.ksprintf (fun msg -> raise (Syntax (Printf.sprintf "line %d: %s" (line st) msg))) fmt

let expect st token =
  if Token.equal (peek st) token then advance st
  else
    fail st "expected %s but found %s"
      (Format.asprintf "%a" Token.pp token)
      (Format.asprintf "%a" Token.pp (peek st))

let ident st =
  match peek st with
  | Token.Ident s ->
    advance st;
    s
  | t -> fail st "expected an identifier, found %s" (Format.asprintf "%a" Token.pp t)

let keyword st kw =
  match peek st with
  | Token.Ident s when s = kw -> advance st
  | t -> fail st "expected %s, found %s" kw (Format.asprintf "%a" Token.pp t)

let bracketed_idents st =
  expect st Token.Lbracket;
  let rec go acc =
    match peek st with
    | Token.Rbracket ->
      advance st;
      List.rev acc
    | Token.Ident s ->
      advance st;
      go (s :: acc)
    | t -> fail st "expected a name or ']', found %s" (Format.asprintf "%a" Token.pp t)
  in
  go []

let parse_actor st =
  keyword st "actor";
  let id = ident st in
  let roles =
    match peek st with
    | Token.Ident "roles" ->
      advance st;
      bracketed_idents st
    | _ -> []
  in
  Builder.actor st.builder ~roles id

let parse_schemas st =
  expect st Token.Lbrace;
  let rec schemas acc =
    match peek st with
    | Token.Rbrace ->
      advance st;
      List.rev acc
    | Token.Ident "schema" ->
      advance st;
      let id = ident st in
      expect st Token.Lbrace;
      let rec fields acc =
        match peek st with
        | Token.Rbrace ->
          advance st;
          List.rev acc
        | Token.Ident f ->
          advance st;
          fields (f :: acc)
        | t -> fail st "expected a field or '}', found %s" (Format.asprintf "%a" Token.pp t)
      in
      schemas ((id, fields []) :: acc)
    | t -> fail st "expected 'schema' or '}', found %s" (Format.asprintf "%a" Token.pp t)
  in
  schemas []

let parse_store st ~anonymised =
  keyword st (if anonymised then "anonstore" else "store");
  let id = ident st in
  let schemas = parse_schemas st in
  if anonymised then Builder.anon_store st.builder id ~schemas
  else Builder.plain_store st.builder id ~schemas

let parse_service st =
  keyword st "service";
  let service = ident st in
  expect st Token.Lbrace;
  let rec flows () =
    match peek st with
    | Token.Rbrace -> advance st
    | Token.Int order ->
      let line = line st in
      advance st;
      expect st Token.Colon;
      let src = ident st in
      expect st Token.Arrow;
      let dst = ident st in
      let fields = bracketed_idents st in
      let purpose =
        match peek st with
        | Token.String s ->
          advance st;
          Some s
        | _ -> None
      in
      Builder.flow st.builder ~service ~order ?purpose ~line ~src ~dst fields;
      flows ()
    | t ->
      fail st "expected a flow (order: src -> dst [fields]) or '}', found %s"
        (Format.asprintf "%a" Token.pp t)
  in
  flows ()

let parse_node st =
  keyword st "node";
  let node = ident st in
  keyword st "region";
  let region = ident st in
  if List.exists (fun n -> n.node = node) st.rev_nodes then
    fail st "duplicate node %s" node;
  st.rev_nodes <- { node; region } :: st.rev_nodes

let parse_place st =
  keyword st "place";
  let kind = ident st in
  expect st Token.Colon;
  let id = ident st in
  keyword st "on";
  let node = ident st in
  if not (List.exists (fun n -> n.node = node) st.rev_nodes) then
    fail st "placement on undeclared node %s" node;
  match kind with
  | "actor" -> st.rev_actor_nodes <- (id, node) :: st.rev_actor_nodes
  | "store" -> st.rev_store_nodes <- (id, node) :: st.rev_store_nodes
  | k -> fail st "expected place actor:<id> or store:<id>, found %s" k

let parse_hierarchy st =
  keyword st "hierarchy";
  let senior = ident st in
  expect st Token.Gt;
  let junior = ident st in
  st.rev_hierarchy <- (senior, junior) :: st.rev_hierarchy

let parse_acl st ~allow =
  keyword st (if allow then "allow" else "deny");
  let subject =
    match ident st with
    | "actor" ->
      expect st Token.Colon;
      Acl.Actor_subject (ident st)
    | "role" ->
      expect st Token.Colon;
      Acl.Role_subject (ident st)
    | s -> fail st "expected subject actor:<id> or role:<id>, found %s" s
  in
  let rec perms acc =
    match peek st with
    | Token.Ident "on" ->
      advance st;
      List.rev acc
    | Token.Ident p -> (
      match Permission.of_string p with
      | Some perm ->
        advance st;
        perms (perm :: acc)
      | None -> fail st "unknown permission %s" p)
    | t -> fail st "expected a permission or 'on', found %s" (Format.asprintf "%a" Token.pp t)
  in
  let perms = perms [] in
  if perms = [] then fail st "access rule grants no permissions";
  let store = ident st in
  let fields =
    match peek st with
    | Token.Lbracket -> Some (List.map Field.of_name (bracketed_idents st))
    | _ -> None
  in
  let make = if allow then Acl.allow else Acl.deny in
  st.rev_entries <- make subject ~store ?fields perms :: st.rev_entries

let parse_items st =
  let rec go () =
    match peek st with
    | Token.Eof -> ()
    | Token.Ident "actor" ->
      parse_actor st;
      go ()
    | Token.Ident "store" ->
      parse_store st ~anonymised:false;
      go ()
    | Token.Ident "anonstore" ->
      parse_store st ~anonymised:true;
      go ()
    | Token.Ident "service" ->
      parse_service st;
      go ()
    | Token.Ident "hierarchy" ->
      parse_hierarchy st;
      go ()
    | Token.Ident "node" ->
      parse_node st;
      go ()
    | Token.Ident "place" ->
      parse_place st;
      go ()
    | Token.Ident "allow" ->
      parse_acl st ~allow:true;
      go ()
    | Token.Ident "deny" ->
      parse_acl st ~allow:false;
      go ()
    | t ->
      fail st
        "expected actor/store/anonstore/service/hierarchy/allow/deny/node/place, found %s"
        (Format.asprintf "%a" Token.pp t)
  in
  go ()

let parse input =
  match Lexer.tokenize input with
  | Error e -> Error e
  | Ok tokens -> (
    let st =
      {
        tokens = Array.of_list tokens;
        pos = 0;
        builder = Builder.create ();
        rev_hierarchy = [];
        rev_entries = [];
        rev_nodes = [];
        rev_actor_nodes = [];
        rev_store_nodes = [];
      }
    in
    match parse_items st with
    | exception Syntax msg -> Error msg
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "line %d: %s" (line st) msg)
    | () -> (
      match Builder.build st.builder with
      | Error msgs -> Error (String.concat "\n" msgs)
      | Ok diagram -> (
        match
          Mdp_policy.Rbac.create ~hierarchy:(List.rev st.rev_hierarchy) ()
        with
        | exception Invalid_argument msg -> Error msg
        | rbac -> (
          let policy =
            Mdp_policy.Policy.make ~rbac (List.rev st.rev_entries)
          in
          match Mdp_policy.Policy.validate policy diagram with
          | Error msgs -> Error (String.concat "\n" msgs)
          | Ok () -> (
            let placement =
              match
                (st.rev_nodes, st.rev_actor_nodes, st.rev_store_nodes)
              with
              | [], [], [] -> None
              | nodes, actors, stores ->
                Some
                  {
                    nodes = List.rev nodes;
                    actor_nodes = List.rev actors;
                    store_nodes = List.rev stores;
                  }
            in
            (* Placements must reference diagram elements. *)
            let bad =
              match placement with
              | None -> []
              | Some p ->
                List.filter_map
                  (fun (a, _) ->
                    if Diagram.find_actor diagram a = None then
                      Some (Printf.sprintf "placed actor %s is not in the model" a)
                    else None)
                  p.actor_nodes
                @ List.filter_map
                    (fun (s, _) ->
                      if Diagram.find_store diagram s = None then
                        Some
                          (Printf.sprintf "placed datastore %s is not in the model" s)
                      else None)
                    p.store_nodes
            in
            match bad with
            | [] -> Ok { diagram; policy; placement }
            | msgs -> Error (String.concat "\n" msgs))))))
