(* Tests for the data-flow modelling layer: fields (anon variants),
   schemas, actors, datastores, flows (classification rules), services,
   whole-diagram validation, the builder and DOT export. *)

open Mdp_dataflow

let check = Alcotest.check
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let field_t = Alcotest.testable Field.pp Field.equal

(* ------------------------------------------------------------------ *)
(* Field *)

let test_field_basics () =
  let f = Field.make "Diagnosis" in
  check string_ "name" "Diagnosis" (Field.name f);
  check bool_ "not anon" false (Field.is_anon f);
  let a = Field.anon_of f in
  check string_ "anon name" "Diagnosis~anon" (Field.name a);
  check bool_ "anon flag" true (Field.is_anon a);
  check field_t "anon idempotent" a (Field.anon_of a);
  check field_t "base_of inverts" f (Field.base_of a);
  check field_t "of_name base" f (Field.of_name "Diagnosis");
  check field_t "of_name anon" a (Field.of_name "Diagnosis~anon")

let test_field_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Field.make: invalid field name \"\"")
    (fun () -> ignore (Field.make ""));
  Alcotest.check_raises "whitespace"
    (Invalid_argument "Field.make: invalid field name \"a b\"") (fun () ->
      ignore (Field.make "a b"))

let test_field_ordering () =
  let f = Field.make "A" in
  check bool_ "base < anon" true (Field.compare f (Field.anon_of f) < 0);
  check bool_ "name order" true
    (Field.compare (Field.make "A") (Field.make "B") < 0)

(* ------------------------------------------------------------------ *)
(* Schema / Datastore *)

let test_schema () =
  let s = Schema.make ~id:"S" ~fields:[ Field.make "A"; Field.make "B" ] in
  check bool_ "mem" true (Schema.mem s (Field.make "A"));
  check bool_ "mem anon no" false (Schema.mem s (Field.anon_of (Field.make "A")));
  Alcotest.check_raises "duplicate field"
    (Invalid_argument "Schema.make: duplicate field A") (fun () ->
      ignore (Schema.make ~id:"S" ~fields:[ Field.make "A"; Field.make "A" ]));
  Alcotest.check_raises "no fields" (Invalid_argument "Schema.make: no fields")
    (fun () -> ignore (Schema.make ~id:"S" ~fields:[]))

let test_datastore () =
  let s1 = Schema.make ~id:"S1" ~fields:[ Field.make "A"; Field.make "B" ] in
  let s2 = Schema.make ~id:"S2" ~fields:[ Field.make "B"; Field.make "C" ] in
  let d = Datastore.make ~id:"D" ~schemas:[ s1; s2 ] () in
  check Alcotest.(list field_t) "fields dedup"
    [ Field.make "A"; Field.make "B"; Field.make "C" ]
    (Datastore.fields d);
  check string_ "schema_of_field first wins" "S1"
    (Option.get (Datastore.schema_of_field d (Field.make "B"))).Schema.id;
  check bool_ "default kind" true (d.kind = Datastore.Plain)

(* ------------------------------------------------------------------ *)
(* Flow classification *)

let plain_kind = fun _ -> Datastore.Plain
let anon_kind = fun _ -> Datastore.Anonymised

let test_flow_classification () =
  let f = Field.make "X" in
  let mk src dst =
    Flow.make ~order:1 ~src ~dst ~fields:[ f ] ~purpose:"p"
  in
  let name = function
    | Flow.Collect -> "collect"
    | Flow.Disclose -> "disclose"
    | Flow.Create -> "create"
    | Flow.Anon -> "anon"
    | Flow.Read -> "read"
  in
  let k = Alcotest.testable (Fmt.of_to_string name) ( = ) in
  check k "user->actor collect" Flow.Collect
    (Flow.classify ~store_kind:plain_kind (mk Flow.User (Flow.Actor "a")));
  check k "actor->actor disclose" Flow.Disclose
    (Flow.classify ~store_kind:plain_kind (mk (Flow.Actor "a") (Flow.Actor "b")));
  check k "actor->plain-store create" Flow.Create
    (Flow.classify ~store_kind:plain_kind (mk (Flow.Actor "a") (Flow.Store "s")));
  check k "actor->anon-store anon" Flow.Anon
    (Flow.classify ~store_kind:anon_kind (mk (Flow.Actor "a") (Flow.Store "s")));
  check k "store->actor read" Flow.Read
    (Flow.classify ~store_kind:plain_kind (mk (Flow.Store "s") (Flow.Actor "a")))

let test_flow_invalid_endpoints () =
  let f = Field.make "X" in
  let expect_invalid src dst =
    match Flow.make ~order:1 ~src ~dst ~fields:[ f ] ~purpose:"p" with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "endpoint pattern should be rejected"
  in
  expect_invalid Flow.User Flow.User;
  expect_invalid Flow.User (Flow.Store "s");
  expect_invalid (Flow.Store "s") (Flow.Store "t");
  expect_invalid (Flow.Actor "a") Flow.User;
  expect_invalid (Flow.Actor "a") (Flow.Actor "a");
  expect_invalid (Flow.Store "s") (Flow.Store "s")

(* ------------------------------------------------------------------ *)
(* Service *)

let test_service_ordering () =
  let f = Field.make "X" in
  let fl o = Flow.make ~order:o ~src:Flow.User ~dst:(Flow.Actor "a") ~fields:[ f ] ~purpose:"p" in
  let s = Service.make ~id:"S" ~flows:[ fl 3; fl 1; fl 2 ] in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ]
    (List.map (fun (x : Flow.t) -> x.order) s.flows);
  Alcotest.check_raises "duplicate order"
    (Invalid_argument "Service.make: duplicate flow order 1") (fun () ->
      ignore (Service.make ~id:"S" ~flows:[ fl 1; fl 1 ]))

let test_service_queries () =
  let s = Option.get (Diagram.find_service Mdp_scenario.Healthcare.diagram "MedicalService") in
  check (Alcotest.list string_) "actors"
    [ "Receptionist"; "Doctor"; "Nurse" ]
    (Service.actors s);
  check bool_ "flow_with_order" true (Service.flow_with_order s 4 <> None);
  check bool_ "flow_with_order missing" true (Service.flow_with_order s 99 = None)

(* ------------------------------------------------------------------ *)
(* Diagram validation *)

let mini_store () =
  Datastore.make ~id:"S"
    ~schemas:[ Schema.make ~id:"Sch" ~fields:[ Field.make "A" ] ]
    ()

let expect_errors ~expect_substring actors datastores services =
  match Diagram.make ~actors ~datastores ~services with
  | Ok _ -> Alcotest.fail "expected validation failure"
  | Error msgs ->
    let all = String.concat "\n" msgs in
    let contains hay needle =
      let hn = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    if not (contains all expect_substring) then
      Alcotest.failf "errors %S lack %S" all expect_substring

let test_diagram_unknown_refs () =
  let flow =
    Flow.make ~order:1 ~src:Flow.User ~dst:(Flow.Actor "ghost")
      ~fields:[ Field.make "A" ] ~purpose:"p"
  in
  expect_errors ~expect_substring:"unknown actor ghost" []
    [ mini_store () ]
    [ Service.make ~id:"Svc" ~flows:[ flow ] ]

let test_diagram_schema_mismatch () =
  let actor = Actor.make "A1" in
  let flow =
    Flow.make ~order:1 ~src:(Flow.Actor "A1") ~dst:(Flow.Store "S")
      ~fields:[ Field.make "NotInSchema" ] ~purpose:"p"
  in
  expect_errors ~expect_substring:"not in the schemas" [ actor ]
    [ mini_store () ]
    [ Service.make ~id:"Svc" ~flows:[ flow ] ]

let test_diagram_anon_rules () =
  let actor = Actor.make "A1" in
  let anon_store =
    Datastore.make ~kind:Datastore.Anonymised ~id:"AS"
      ~schemas:
        [ Schema.make ~id:"Sch" ~fields:[ Field.anon_of (Field.make "A") ] ]
      ()
  in
  (* anon flow carrying an anon field is rejected *)
  let bad =
    Flow.make ~order:1 ~src:(Flow.Actor "A1") ~dst:(Flow.Store "AS")
      ~fields:[ Field.anon_of (Field.make "A") ]
      ~purpose:"p"
  in
  expect_errors ~expect_substring:"anon flow must carry base fields" [ actor ]
    [ anon_store ]
    [ Service.make ~id:"Svc" ~flows:[ bad ] ];
  (* read from an anon store must carry anon fields *)
  let bad_read =
    Flow.make ~order:1 ~src:(Flow.Store "AS") ~dst:(Flow.Actor "A1")
      ~fields:[ Field.make "A" ] ~purpose:"p"
  in
  expect_errors ~expect_substring:"must carry anon fields" [ actor ]
    [ anon_store ]
    [ Service.make ~id:"Svc" ~flows:[ bad_read ] ]

let test_diagram_reserved_and_collisions () =
  expect_errors ~expect_substring:"reserved"
    [ Actor.make "User" ]
    [ mini_store () ] [];
  expect_errors ~expect_substring:"names both an actor and a datastore"
    [ Actor.make "S" ]
    [ mini_store () ] [];
  (* Event trace lines write "-" for an absent store/service/actor. *)
  expect_errors ~expect_substring:"id - is reserved" [ Actor.make "-" ]
    [ mini_store () ] [];
  expect_errors ~expect_substring:"id - is reserved" []
    [
      Datastore.make ~id:"-"
        ~schemas:[ Schema.make ~id:"Sch" ~fields:[ Field.make "A" ] ]
        ();
    ]
    [];
  expect_errors ~expect_substring:"id - is reserved" [ Actor.make "B" ] []
    [
      Service.make ~id:"-"
        ~flows:
          [
            Flow.make ~order:1 ~src:Flow.User ~dst:(Flow.Actor "B")
              ~fields:[ Field.make "A" ] ~purpose:"p";
          ];
    ]

let test_all_fields_includes_anon_variants () =
  let fields = Diagram.all_fields Mdp_scenario.Healthcare.diagram in
  check bool_ "has base" true
    (List.exists (Field.equal (Field.make "Diagnosis")) fields);
  check bool_ "has anon variant" true
    (List.exists (Field.equal (Field.of_name "Diagnosis~anon")) fields);
  (* 6 base + 4 anon *)
  check Alcotest.int "universe size" 10 (List.length fields)

(* ------------------------------------------------------------------ *)
(* Builder *)

let test_builder () =
  let b = Builder.create () in
  Builder.actor b "A1" ~roles:[ "r" ];
  Builder.plain_store b "St" ~schemas:[ ("Sch", [ "F1"; "F2" ]) ];
  Builder.flow b ~service:"Svc" ~src:"User" ~dst:"A1" [ "F1" ];
  Builder.flow b ~service:"Svc" ~src:"A1" ~dst:"St" [ "F1"; "F2" ];
  let d = Builder.build_exn b in
  let svc = Option.get (Diagram.find_service d "Svc") in
  check (Alcotest.list Alcotest.int) "auto order" [ 1; 2 ]
    (List.map (fun (f : Flow.t) -> f.order) svc.flows);
  let f2 = List.nth svc.flows 1 in
  check bool_ "store resolved" true (Flow.equal_node f2.dst (Flow.Store "St"));
  check string_ "default purpose" "Svc" f2.purpose

let test_builder_explicit_order_conflict () =
  let b = Builder.create () in
  Builder.actor b "A1";
  Builder.flow b ~service:"Svc" ~order:2 ~src:"User" ~dst:"A1" [ "F" ];
  Builder.flow b ~service:"Svc" ~order:2 ~src:"User" ~dst:"A1" [ "G" ];
  match Builder.build b with
  | Ok _ -> Alcotest.fail "expected duplicate order failure"
  | Error _ -> ()
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* DOT *)

let test_dot_output () =
  let dot = Dot.to_string Mdp_scenario.Healthcare.diagram in
  let contains needle =
    let hn = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  check bool_ "digraph" true (contains "digraph dataflow");
  check bool_ "user node" true (contains "user [label=\"User\"");
  check bool_ "actor oval" true (contains "actor_Doctor");
  check bool_ "store box" true (contains "store_EHR");
  check bool_ "anon store dashed" true (contains "style=dashed");
  check bool_ "flow arrow" true (contains "user -> actor_Receptionist")

let () =
  Alcotest.run "dataflow"
    [
      ( "field",
        [
          Alcotest.test_case "basics" `Quick test_field_basics;
          Alcotest.test_case "invalid" `Quick test_field_invalid;
          Alcotest.test_case "ordering" `Quick test_field_ordering;
        ] );
      ( "schema/datastore",
        [
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "datastore" `Quick test_datastore;
        ] );
      ( "flow",
        [
          Alcotest.test_case "classification" `Quick test_flow_classification;
          Alcotest.test_case "invalid endpoints" `Quick test_flow_invalid_endpoints;
        ] );
      ( "service",
        [
          Alcotest.test_case "ordering" `Quick test_service_ordering;
          Alcotest.test_case "queries" `Quick test_service_queries;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "unknown refs" `Quick test_diagram_unknown_refs;
          Alcotest.test_case "schema mismatch" `Quick test_diagram_schema_mismatch;
          Alcotest.test_case "anon rules" `Quick test_diagram_anon_rules;
          Alcotest.test_case "reserved ids" `Quick test_diagram_reserved_and_collisions;
          Alcotest.test_case "field universe" `Quick test_all_fields_includes_anon_variants;
        ] );
      ( "builder",
        [
          Alcotest.test_case "assembly" `Quick test_builder;
          Alcotest.test_case "order conflict" `Quick test_builder_explicit_order_conflict;
        ] );
      ("dot", [ Alcotest.test_case "rendering" `Quick test_dot_output ]);
    ]
