(* docs/TUTORIAL.md, executable: builds the ride-sharing model exactly as
   the tutorial does and asserts every outcome the prose claims. If this
   suite fails, the tutorial is lying. *)

open Mdp_dataflow
module Core = Mdp_core
module Policy = Mdp_policy.Policy
module Acl = Mdp_policy.Acl
module Permission = Mdp_policy.Permission
module A = Mdp_anon
module R = Mdp_runtime

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let level_t = Alcotest.testable Core.Level.pp Core.Level.equal

let field = Field.make

let diagram =
  let b = Builder.create () in
  Builder.actor b "Dispatcher";
  Builder.actor b "Driver";
  Builder.actor b "Support";
  Builder.actor b "DataScience";
  Builder.plain_store b "Trips"
    ~schemas:
      [ ("TripRecord", [ "Name"; "Phone"; "Pickup"; "Dropoff"; "Route"; "Fare" ]) ];
  Builder.anon_store b "AnonTrips"
    ~schemas:[ ("AnonTripRecord", [ "Pickup~anon"; "Dropoff~anon"; "Fare~anon" ]) ];
  Builder.flow b ~service:"Rides" ~src:"User" ~dst:"Dispatcher"
    [ "Name"; "Phone"; "Pickup"; "Dropoff" ] ~purpose:"book trip";
  Builder.flow b ~service:"Rides" ~src:"Dispatcher" ~dst:"Trips"
    [ "Name"; "Phone"; "Pickup"; "Dropoff"; "Route"; "Fare" ]
    ~purpose:"record trip";
  Builder.flow b ~service:"Rides" ~src:"Trips" ~dst:"Driver"
    [ "Name"; "Pickup"; "Dropoff" ] ~purpose:"assign trip";
  Builder.flow b ~service:"Pricing" ~src:"Trips" ~dst:"DataScience"
    [ "Pickup"; "Dropoff"; "Fare" ] ~purpose:"extract trips";
  Builder.flow b ~service:"Pricing" ~src:"DataScience" ~dst:"AnonTrips"
    [ "Pickup"; "Dropoff"; "Fare" ] ~purpose:"pseudonymise";
  Builder.build_exn b

let policy =
  Policy.make
    [
      Acl.allow (Acl.Actor_subject "Dispatcher") ~store:"Trips"
        [ Permission.Read; Permission.Write ];
      Acl.allow (Acl.Actor_subject "Driver") ~store:"Trips"
        ~fields:[ field "Name"; field "Pickup"; field "Dropoff" ]
        [ Permission.Read ];
      Acl.allow (Acl.Actor_subject "Support") ~store:"Trips" [ Permission.Read ];
      Acl.allow (Acl.Actor_subject "DataScience") ~store:"Trips"
        ~fields:[ field "Pickup"; field "Dropoff"; field "Fare" ]
        [ Permission.Read ];
      Acl.allow (Acl.Actor_subject "DataScience") ~store:"AnonTrips"
        [ Permission.Read; Permission.Write ];
    ]

let profile =
  Core.User_profile.make
    ~sensitivities:
      [
        (field "Route", Core.User_profile.of_category `High);
        (field "Pickup", Core.User_profile.of_category `Medium);
        (field "Dropoff", Core.User_profile.of_category `Medium);
      ]
    ~agreed_services:[ "Rides" ] ()

let fixed =
  Policy.revoke policy ~subject:(Acl.Actor_subject "Support") ~store:"Trips"
    ~fields:[ field "Pickup"; field "Dropoff"; field "Route" ]
    [ Permission.Read ]

let analysis () = Core.Analysis.run ~profile diagram policy

let test_non_allowed () =
  let a = analysis () in
  let report = Option.get a.disclosure in
  check (Alcotest.list Alcotest.string) "Support and DataScience non-allowed"
    [ "Support"; "DataScience" ] report.non_allowed

let test_support_medium () =
  let a = analysis () in
  let report = Option.get a.disclosure in
  check level_t "Support read of Route is Medium" Core.Level.Medium
    (Core.Disclosure_risk.level_for report ~actor:"Support" ~store:"Trips"
       ~field:(field "Route"));
  (* The DataScience raw read is flagged too. *)
  check bool_ "DataScience findings exist" true
    (Core.Disclosure_risk.findings_for report ~actor:"DataScience" <> []);
  (* The allowed actors come out clean. *)
  check int_ "Driver clean" 0
    (List.length (Core.Disclosure_risk.findings_for report ~actor:"Driver"))

let test_fix_works () =
  let a = analysis () in
  let a' = Core.Analysis.rerun_with_policy a fixed in
  let report' = Option.get a'.disclosure in
  check level_t "Support Route risk gone" Core.Level.None_
    (Core.Disclosure_risk.level_for report' ~actor:"Support" ~store:"Trips"
       ~field:(field "Route"));
  (* No modelled flow broke: Support appears in no flow. *)
  check int_ "no consistency gaps" 0 (List.length a'.consistency);
  (* The diff confirms improvement. *)
  let d =
    Core.Risk_diff.diff ~before:(Option.get a.disclosure) ~after:report'
  in
  check bool_ "diff shows improvement" true (Core.Risk_diff.improved d)

let test_requirements_after_fix () =
  let a = analysis () in
  let a' = Core.Analysis.rerun_with_policy a fixed in
  check bool_ "Support never identifies Route" true
    (Core.Requirement.holds ~annotate:(Core.Analysis.annotate a')
       a'.universe a'.lts
       (Core.Requirement.Never_identifies
          { actor = "Support"; field = field "Route" }));
  (* Both tutorial requirements hold after the fix: the remaining
     DataScience reads of Pickup/Dropoff are Medium impact at Low
     likelihood, which the default matrix maps to Low. *)
  check bool_ "maxrisk Low holds after the fix" true
    (Core.Requirement.holds ~annotate:(Core.Analysis.annotate a')
       a'.universe a'.lts
       (Core.Requirement.Max_disclosure_risk Core.Level.Low));
  (* Before the fix it was violated by the Support read. *)
  check bool_ "maxrisk Low violated before the fix" false
    (Core.Requirement.holds ~annotate:(Core.Analysis.annotate a)
       a.universe a.lts
       (Core.Requirement.Max_disclosure_risk Core.Level.Low))

let test_dsl_variant_matches () =
  (* The file version at the end of the tutorial describes the same
     system. *)
  let text =
    Mdp_dsl.Printer.to_string { Mdp_dsl.Parser.diagram; policy; placement = None }
  in
  match Mdp_dsl.Parser.parse text with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let a = Core.Analysis.run ~profile m.diagram m.policy in
    let direct = analysis () in
    check int_ "same LTS" (Core.Plts.num_states direct.lts)
      (Core.Plts.num_states a.lts)

(* §6: the released trips; rides from the same pickup/dropoff pair cost
   within 2 units of each other. *)
let release =
  A.Dataset.make
    ~attrs:
      [
        A.Attribute.make ~name:"Pickup" ~kind:A.Attribute.Quasi;
        A.Attribute.make ~name:"Dropoff" ~kind:A.Attribute.Quasi;
        A.Attribute.make ~name:"Fare" ~kind:A.Attribute.Sensitive;
      ]
    ~rows:
      A.Value.
        [
          [ Str "North"; Str "South"; Int 12 ];
          [ Str "North"; Str "South"; Int 13 ];
          [ Str "East"; Str "West"; Int 30 ];
          [ Str "East"; Str "West"; Int 31 ];
        ]

let binding =
  Core.Pseudonym_risk.make_binding ~store:"AnonTrips" ~dataset:release
    ~attr_fields:
      [
        ("Pickup", field "Pickup");
        ("Dropoff", field "Dropoff");
        ("Fare", field "Fare");
      ]
    ~policy:{ sensitive = "Fare"; closeness = 2.0; confidence = 0.9 }

let released =
  Policy.grant fixed
    (Acl.allow (Acl.Actor_subject "Driver") ~store:"AnonTrips"
       [ Permission.Read ])

let analysis'' policy =
  Core.Analysis.run
    ~options:{ Core.Generate.default_options with granular_reads = true }
    ~profile ~bindings:[ binding ] diagram policy

let test_pseudonym_risk () =
  check int_ "DataScience may read the raw Fare: nothing to infer" 0
    (List.length (analysis'' fixed).pseudonym);
  let a = analysis'' released in
  check bool_ "Driver gets risk-transitions" true (a.pseudonym <> []);
  check bool_ "all of them Driver inferring Fare" true
    (List.for_all
       (fun (rt : Core.Pseudonym_risk.risk_transition) ->
         rt.actor = "Driver" && Field.equal rt.field (field "Fare"))
       a.pseudonym);
  check bool_ "some violate the policy" true
    (List.exists
       (fun (rt : Core.Pseudonym_risk.risk_transition) ->
         rt.report.A.Value_risk.violations > 0)
       a.pseudonym)

(* §7: drive the monitor along the LTS to a state with a risk-transition,
   then let Driver read the raw Fare. *)
let test_monitor_raw_read () =
  let a = analysis'' released in
  let rt = List.hd a.pseudonym in
  let path = Option.get (Core.Plts.path_to a.lts (fun s -> s = rt.src)) in
  let event time (label : Core.Action.t) =
    let service =
      match label.provenance with
      | Core.Action.From_flow { service; _ } -> Some service
      | Core.Action.Potential -> None
    in
    R.Event.make ~time ~kind:label.kind ~actor:label.actor ~fields:label.fields
      ?store:label.store ?service ()
  in
  let monitor =
    R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
  in
  List.iteri
    (fun i (label, _) ->
      ignore (R.Monitor.observe monitor (event (i + 1) label) : R.Monitor.alert list))
    path;
  check int_ "monitor at the risk source" rt.src (R.Monitor.current_state monitor);
  let raw_read time store =
    R.Event.make ~time ~kind:Core.Action.Read ~actor:"Driver"
      ~fields:[ field "Fare" ] ~store ()
  in
  let t = List.length path + 1 in
  (match R.Monitor.observe monitor (raw_read t "Trips") with
  | [ R.Monitor.Denied _; R.Monitor.Off_model _ ] -> ()
  | _ -> Alcotest.fail "raw Fare read from Trips: expected Denied, Off_model");
  (* AnonTrips holds only Fare~anon, so Driver's read grant there does
     not cover the raw field. *)
  match R.Monitor.observe monitor (raw_read (t + 1) "AnonTrips") with
  | [ R.Monitor.Denied _; R.Monitor.Off_model _ ] -> ()
  | _ -> Alcotest.fail "raw Fare read from AnonTrips: expected Denied, Off_model"

let () =
  Alcotest.run "tutorial"
    [
      ( "ride-sharing walkthrough",
        [
          Alcotest.test_case "non-allowed actors" `Quick test_non_allowed;
          Alcotest.test_case "Support risk Medium" `Quick test_support_medium;
          Alcotest.test_case "least-privilege fix" `Quick test_fix_works;
          Alcotest.test_case "requirements after fix" `Quick
            test_requirements_after_fix;
          Alcotest.test_case "DSL variant" `Quick test_dsl_variant_matches;
          Alcotest.test_case "pseudonymisation risk" `Quick test_pseudonym_risk;
          Alcotest.test_case "monitor raw read" `Quick test_monitor_raw_read;
        ] );
    ]
