(* Tests for the transparency reports and the distributed-deployment
   transfer analysis. *)

open Mdp_dataflow
module Core = Mdp_core
module R = Mdp_runtime
module H = Mdp_scenario.Healthcare

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let setup () =
  let u = Core.Universe.make H.diagram H.policy in
  (u, Core.Generate.run u)

(* ------------------------------------------------------------------ *)
(* Transparency *)

let test_transparency_initial_empty () =
  let u, lts = setup () in
  check int_ "nothing exposed initially" 0
    (List.length (Core.Transparency.at_state u lts (Core.Plts.initial lts)))

let test_transparency_tracks_monitor () =
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let monitor =
    R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
  in
  let trace =
    R.Sim.run_exn a.universe
      { seed = 4; services = [ H.medical_service ]; snoopers = [] }
  in
  ignore (R.Monitor.run_trace monitor trace);
  let entries =
    Core.Transparency.at_state a.universe a.lts
      (R.Monitor.current_state monitor)
  in
  (* After the medical service: the Doctor has seen the Diagnosis... *)
  check bool_ "doctor has diagnosis" true
    (List.exists
       (fun (e : Core.Transparency.entry) ->
         e.actor = "Doctor" && Field.equal e.field H.diagnosis
         && e.status = Core.Transparency.Has)
       entries);
  (* ...the Administrator only *could* see it... *)
  check bool_ "admin could see diagnosis" true
    (List.exists
       (fun (e : Core.Transparency.entry) ->
         e.actor = "Administrator" && Field.equal e.field H.diagnosis
         && e.status = Core.Transparency.Could)
       entries);
  (* ...and the Researcher appears nowhere. *)
  check int_ "researcher absent" 0
    (List.length (Core.Transparency.for_actor entries "Researcher"));
  (* Every entry carries a non-empty explanation. *)
  List.iter
    (fun (e : Core.Transparency.entry) ->
      check bool_ "witness present" true (e.via <> []))
    entries

let test_transparency_worst_case_superset () =
  let u, lts = setup () in
  let worst = Core.Transparency.worst_case u lts in
  let somewhere = Core.Transparency.at_state u lts (Core.Plts.initial lts) in
  check bool_ "worst case covers any state" true
    (List.length worst >= List.length somewhere);
  (* Worst case includes the researcher's anon readings. *)
  check bool_ "researcher anon exposure in worst case" true
    (List.exists
       (fun (e : Core.Transparency.entry) ->
         e.actor = "Researcher" && Field.is_anon e.field)
       worst)

(* ------------------------------------------------------------------ *)
(* Deployment *)

let nodes =
  [
    { R.Deployment.id = "surgery"; region = "UK" };
    { R.Deployment.id = "dc-eu"; region = "EU" };
    { R.Deployment.id = "research-cloud"; region = "US" };
  ]

let placement u =
  R.Deployment.create ~nodes
    ~actors:
      [
        ("Receptionist", "surgery");
        ("Doctor", "surgery");
        ("Nurse", "surgery");
        ("Administrator", "dc-eu");
        ("Researcher", "research-cloud");
      ]
    ~stores:
      [
        ("Appointments", "surgery");
        ("EHR", "dc-eu");
        ("AnonEHR", "research-cloud");
      ]
    u

let test_deployment_validation () =
  let u, _ = setup () in
  (match
     R.Deployment.create ~nodes ~actors:[ ("Doctor", "surgery") ] ~stores:[] u
   with
  | Error msgs -> check bool_ "missing placements reported" true (List.length msgs > 5)
  | Ok _ -> Alcotest.fail "incomplete placement accepted");
  match
    R.Deployment.create ~nodes
      ~actors:[ ("Doctor", "mars") ]
      ~stores:[] u
  with
  | Error msgs ->
    check bool_ "unknown node reported" true
      (List.exists
         (fun m ->
           let rec contains i =
             i + 4 <= String.length m
             && (String.sub m i 4 = "mars" || contains (i + 1))
           in
           contains 0)
         msgs)
  | Ok _ -> Alcotest.fail "unknown node accepted"

let test_deployment_transfers () =
  let u, lts = setup () in
  match placement u with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok dep ->
    let transfers = R.Deployment.transfers dep lts in
    check bool_ "transfers found" true (transfers <> []);
    (* The Doctor's EHR create moves data surgery/UK -> dc-eu/EU. *)
    check bool_ "EHR create crosses UK->EU" true
      (List.exists
         (fun (tr : R.Deployment.transfer) ->
           tr.action.Core.Action.kind = Core.Action.Create
           && tr.action.Core.Action.store = Some "EHR"
           && tr.cross_region)
         transfers);
    (* The Receptionist's Appointments create stays on one node: absent. *)
    check bool_ "same-node create omitted" false
      (List.exists
         (fun (tr : R.Deployment.transfer) ->
           tr.action.Core.Action.kind = Core.Action.Create
           && tr.action.Core.Action.store = Some "Appointments")
         transfers);
    (* Collects always appear, from the subject's device. *)
    check bool_ "collect from device" true
      (List.exists
         (fun (tr : R.Deployment.transfer) ->
           tr.action.Core.Action.kind = Core.Action.Collect
           && tr.from_node = None)
         transfers)

let test_deployment_risky_transfers () =
  let u, lts = setup () in
  match placement u with
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)
  | Ok dep ->
    let risky = R.Deployment.risky_transfers dep lts H.profile_case_a in
    check bool_ "risky transfers exist" true (risky <> []);
    List.iter
      (fun (tr : R.Deployment.transfer) ->
        check bool_ "all flagged transfers cross regions" true tr.cross_region;
        check bool_ "all carry sensitive fields" true
          (List.exists
             (fun f -> Core.User_profile.sensitivity H.profile_case_a f > 0.0)
             tr.action.Core.Action.fields))
      risky;
    (* The medical service's own flows are consented and not flagged. *)
    check bool_ "agreed-service flows not flagged" true
      (List.for_all
         (fun (tr : R.Deployment.transfer) ->
           match tr.action.Core.Action.provenance with
           | Core.Action.From_flow { service; _ } ->
             service <> H.medical_service
           | _ -> true)
         risky)

let () =
  Alcotest.run "distributed"
    [
      ( "transparency",
        [
          Alcotest.test_case "initial empty" `Quick test_transparency_initial_empty;
          Alcotest.test_case "tracks monitor" `Quick test_transparency_tracks_monitor;
          Alcotest.test_case "worst case" `Quick test_transparency_worst_case_superset;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "validation" `Quick test_deployment_validation;
          Alcotest.test_case "transfers" `Quick test_deployment_transfers;
          Alcotest.test_case "risky transfers" `Quick test_deployment_risky_transfers;
        ] );
    ]
