(* Tests for the access-control layer: permissions, RBAC role hierarchy,
   ACL matching, deny-overrides evaluation, editing and diffing. *)

open Mdp_dataflow
module Policy = Mdp_policy.Policy
module Acl = Mdp_policy.Acl
module Rbac = Mdp_policy.Rbac
module Permission = Mdp_policy.Permission

let check = Alcotest.check
let bool_ = Alcotest.bool

let fa = Field.make "A"
let fb = Field.make "B"

let diagram =
  Diagram.make_exn
    ~actors:
      [
        Actor.make "alice" ~roles:[ "senior" ];
        Actor.make "bob" ~roles:[ "junior" ];
        Actor.make "carol";
      ]
    ~datastores:
      [
        Datastore.make ~id:"D"
          ~schemas:[ Schema.make ~id:"S" ~fields:[ fa; fb ] ]
          ();
      ]
    ~services:
      [
        Service.make ~id:"Svc"
          ~flows:
            [
              Flow.make ~order:1 ~src:Flow.User ~dst:(Flow.Actor "alice")
                ~fields:[ fa ] ~purpose:"p";
            ];
      ]

let rbac = Rbac.create ~hierarchy:[ ("senior", "junior") ] ()

(* ------------------------------------------------------------------ *)
(* Permission *)

let test_permission_strings () =
  List.iter
    (fun p ->
      check bool_ "roundtrip" true
        (Permission.of_string (Permission.to_string p) = Some p))
    Permission.all;
  check bool_ "unknown" true (Permission.of_string "admin" = None)

(* ------------------------------------------------------------------ *)
(* RBAC *)

let test_rbac_closure () =
  let deep =
    Rbac.create ~hierarchy:[ ("a", "b"); ("b", "c"); ("b", "d") ] ()
  in
  check (Alcotest.list Alcotest.string) "transitive juniors" [ "b"; "c"; "d" ]
    (List.sort String.compare (Rbac.juniors deep "a"));
  check (Alcotest.list Alcotest.string) "leaf" [] (Rbac.juniors deep "c");
  let actor = Actor.make "x" ~roles:[ "a" ] in
  check bool_ "holds own role" true (Rbac.holds_role deep actor "a");
  check bool_ "holds transitive" true (Rbac.holds_role deep actor "d");
  check bool_ "not unrelated" false (Rbac.holds_role deep actor "z")

let test_rbac_cycle_rejected () =
  match Rbac.create ~hierarchy:[ ("a", "b"); ("b", "a") ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cycle should be rejected"

let test_rbac_empty () =
  let actor = Actor.make "x" ~roles:[ "solo" ] in
  check bool_ "direct role without hierarchy" true
    (Rbac.holds_role Rbac.empty actor "solo")

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let test_actor_subject () =
  let p = Policy.make [ Acl.allow (Acl.Actor_subject "alice") ~store:"D" [ Permission.Read ] ] in
  check bool_ "alice reads A" true
    (Policy.allows p ~diagram ~actor:"alice" Permission.Read ~store:"D" fa);
  check bool_ "alice cannot write" false
    (Policy.allows p ~diagram ~actor:"alice" Permission.Write ~store:"D" fa);
  check bool_ "bob cannot read" false
    (Policy.allows p ~diagram ~actor:"bob" Permission.Read ~store:"D" fa);
  check bool_ "unknown actor" false
    (Policy.allows p ~diagram ~actor:"mallory" Permission.Read ~store:"D" fa)

let test_role_subject_with_hierarchy () =
  let p =
    Policy.make ~rbac
      [ Acl.allow (Acl.Role_subject "junior") ~store:"D" [ Permission.Read ] ]
  in
  check bool_ "junior role reads" true
    (Policy.allows p ~diagram ~actor:"bob" Permission.Read ~store:"D" fa);
  check bool_ "senior inherits junior grant" true
    (Policy.allows p ~diagram ~actor:"alice" Permission.Read ~store:"D" fa);
  check bool_ "roleless actor" false
    (Policy.allows p ~diagram ~actor:"carol" Permission.Read ~store:"D" fa);
  let p_senior =
    Policy.make ~rbac
      [ Acl.allow (Acl.Role_subject "senior") ~store:"D" [ Permission.Read ] ]
  in
  check bool_ "junior does not inherit senior grant" false
    (Policy.allows p_senior ~diagram ~actor:"bob" Permission.Read ~store:"D" fa)

let test_field_selector () =
  let p =
    Policy.make
      [ Acl.allow (Acl.Actor_subject "alice") ~store:"D" ~fields:[ fa ] [ Permission.Read ] ]
  in
  check bool_ "selected field" true
    (Policy.allows p ~diagram ~actor:"alice" Permission.Read ~store:"D" fa);
  check bool_ "unselected field" false
    (Policy.allows p ~diagram ~actor:"alice" Permission.Read ~store:"D" fb)

let test_deny_overrides () =
  let p =
    Policy.make
      [
        Acl.allow (Acl.Actor_subject "alice") ~store:"D" [ Permission.Read ];
        Acl.deny (Acl.Actor_subject "alice") ~store:"D" ~fields:[ fb ] [ Permission.Read ];
      ]
  in
  check bool_ "A still allowed" true
    (Policy.allows p ~diagram ~actor:"alice" Permission.Read ~store:"D" fa);
  check bool_ "B denied" false
    (Policy.allows p ~diagram ~actor:"alice" Permission.Read ~store:"D" fb);
  let only_deny =
    Policy.make [ Acl.deny (Acl.Actor_subject "alice") ~store:"D" [ Permission.Read ] ]
  in
  check bool_ "deny alone grants nothing" false
    (Policy.allows only_deny ~diagram ~actor:"alice" Permission.Read ~store:"D" fa)

let test_revoke_equals_deny () =
  let p = Policy.make [ Acl.allow (Acl.Actor_subject "alice") ~store:"D" [ Permission.Read ] ] in
  let p' =
    Policy.revoke p ~subject:(Acl.Actor_subject "alice") ~store:"D" ~fields:[ fa ]
      [ Permission.Read ]
  in
  check bool_ "revoked" false
    (Policy.allows p' ~diagram ~actor:"alice" Permission.Read ~store:"D" fa);
  check bool_ "other field unaffected" true
    (Policy.allows p' ~diagram ~actor:"alice" Permission.Read ~store:"D" fb)

let test_validate () =
  let bad_store = Policy.make [ Acl.allow (Acl.Actor_subject "alice") ~store:"Nope" [ Permission.Read ] ] in
  (match Policy.validate bad_store diagram with
  | Error [ _ ] -> ()
  | _ -> Alcotest.fail "expected one error for unknown store");
  let bad_actor = Policy.make [ Acl.allow (Acl.Actor_subject "nobody") ~store:"D" [ Permission.Read ] ] in
  (match Policy.validate bad_actor diagram with
  | Error [ _ ] -> ()
  | _ -> Alcotest.fail "expected one error for unknown actor");
  let bad_field =
    Policy.make
      [ Acl.allow (Acl.Actor_subject "alice") ~store:"D" ~fields:[ Field.make "Z" ] [ Permission.Read ] ]
  in
  (match Policy.validate bad_field diagram with
  | Error [ _ ] -> ()
  | _ -> Alcotest.fail "expected one error for foreign field");
  let role_only = Policy.make [ Acl.allow (Acl.Role_subject "whatever") ~store:"D" [ Permission.Read ] ] in
  check bool_ "role subjects are open-world" true
    (Policy.validate role_only diagram = Ok ())

let test_diff () =
  let before = Policy.make [ Acl.allow (Acl.Actor_subject "alice") ~store:"D" [ Permission.Read ] ] in
  let after =
    Policy.revoke before ~subject:(Acl.Actor_subject "alice") ~store:"D"
      ~fields:[ fa ] [ Permission.Read ]
  in
  let removed, added = Policy.diff ~before ~after diagram in
  check Alcotest.int "one removal" 1 (List.length removed);
  check Alcotest.int "no additions" 0 (List.length added);
  let g = List.hd removed in
  check Alcotest.string "removed actor" "alice" g.Policy.actor;
  check Alcotest.string "removed field" "A" (Field.name g.Policy.field)

let prop_revoke_monotone =
  (* Revoking permissions never allows anything new. *)
  QCheck.Test.make ~name:"revoke is monotone" ~count:100
    QCheck.(pair (int_bound 2) bool)
    (fun (perm_i, whole_store) ->
      let perm = List.nth Permission.all perm_i in
      let before =
        Policy.make
          [
            Acl.allow (Acl.Actor_subject "alice") ~store:"D" [ perm ];
            Acl.allow (Acl.Actor_subject "bob") ~store:"D" [ Permission.Read ];
          ]
      in
      let after =
        Policy.revoke before ~subject:(Acl.Actor_subject "alice") ~store:"D"
          ?fields:(if whole_store then None else Some [ fa ])
          [ perm ]
      in
      let b = Policy.concrete_grants before diagram
      and a = Policy.concrete_grants after diagram in
      List.for_all (fun g -> List.mem g b) a)

let () =
  Alcotest.run "policy"
    [
      ("permission", [ Alcotest.test_case "strings" `Quick test_permission_strings ]);
      ( "rbac",
        [
          Alcotest.test_case "closure" `Quick test_rbac_closure;
          Alcotest.test_case "cycle rejected" `Quick test_rbac_cycle_rejected;
          Alcotest.test_case "empty" `Quick test_rbac_empty;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "actor subject" `Quick test_actor_subject;
          Alcotest.test_case "role subject" `Quick test_role_subject_with_hierarchy;
          Alcotest.test_case "field selector" `Quick test_field_selector;
          Alcotest.test_case "deny overrides" `Quick test_deny_overrides;
          Alcotest.test_case "revoke" `Quick test_revoke_equals_deny;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "diff" `Quick test_diff;
          QCheck_alcotest.to_alcotest prop_revoke_monotone;
        ] );
    ]
