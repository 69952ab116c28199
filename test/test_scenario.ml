(* Tests for the bundled scenarios: well-formedness of each model, the
   §IV-B data artefacts and the synthetic generators. *)

module Core = Mdp_core
module A = Mdp_anon
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module Syn = Mdp_scenario.Synthetic

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Healthcare (Fig. 1) *)

let test_healthcare_well_formed () =
  (* make_exn already validated; check the paper's headline numbers. *)
  check int_ "five actors" 5 (List.length H.diagram.Mdp_dataflow.Diagram.actors);
  check int_ "two services" 2 (List.length H.diagram.Mdp_dataflow.Diagram.services);
  check int_ "three stores" 3
    (List.length H.diagram.Mdp_dataflow.Diagram.datastores);
  let base_fields =
    List.filter
      (fun f -> not (Mdp_dataflow.Field.is_anon f))
      (Mdp_dataflow.Diagram.all_fields H.diagram)
  in
  (* "2 * 5 * 6 = 60 Boolean state variables" over base fields. *)
  check int_ "six base fields" 6 (List.length base_fields);
  check int_ "policy validates" 0
    (match Mdp_policy.Policy.validate H.policy H.diagram with
    | Ok () -> 0
    | Error e -> List.length e)

let test_study_well_formed () =
  check int_ "study actors" 3
    (List.length H.study_diagram.Mdp_dataflow.Diagram.actors);
  check bool_ "study policy validates" true
    (Mdp_policy.Policy.validate H.study_policy H.study_diagram = Ok ())

let test_table1_dataset () =
  check int_ "six records" 6 (A.Dataset.nrows H.table1_raw);
  check int_ "released drops identifier" 3 (A.Dataset.ncols H.table1_released);
  check bool_ "release is 2-anonymous" true
    (Mdp_release.Kanonymity.is_k_anonymous ~k:2 H.table1_released);
  (* The generalisation matches the paper's bands. *)
  check bool_ "first age band" true
    (A.Dataset.get H.table1_released ~row:0 ~col:0
    = A.Value.Interval (30.0, 40.0));
  check bool_ "first height band" true
    (A.Dataset.get H.table1_released ~row:0 ~col:1
    = A.Value.Interval (180.0, 200.0))

(* ------------------------------------------------------------------ *)
(* Smart home *)

let test_smart_home_pipeline () =
  let a = Core.Analysis.run ~profile:SH.profile SH.diagram SH.policy in
  check int_ "no consistency gaps" 0 (List.length a.consistency);
  let report = Option.get a.disclosure in
  check bool_ "marketing is non-allowed" true
    (List.mem "Marketing" report.non_allowed);
  check bool_ "occupancy risk found" true
    (Core.Level.compare (Core.Disclosure_risk.max_level report) Core.Level.Low > 0);
  let a' = Core.Analysis.rerun_with_policy a SH.fixed_policy in
  let report' = Option.get a'.disclosure in
  check bool_ "fix lowers the max level" true
    (Core.Level.compare
       (Core.Disclosure_risk.max_level report')
       (Core.Disclosure_risk.max_level report)
    < 0)

(* ------------------------------------------------------------------ *)
(* Synthetic *)

let spec seed =
  {
    Syn.seed;
    nactors = 4;
    nfields = 5;
    nstores = 3;
    nservices = 3;
    flows_per_service = 4;
  }

let test_synthetic_model_valid () =
  (* make_exn inside would raise on an ill-formed diagram; also the
     policy must validate and the profile agree to half the services. *)
  let diagram, policy = Syn.model (spec 17) in
  check bool_ "policy validates" true
    (Mdp_policy.Policy.validate policy diagram = Ok ());
  let profile = Syn.profile (spec 17) diagram in
  check bool_ "agrees to at least one service" true
    (Core.User_profile.agreed_services profile <> [])

let test_synthetic_deterministic () =
  let d1, _ = Syn.model (spec 23) and d2, _ = Syn.model (spec 23) in
  check bool_ "same structure" true
    (Mdp_dataflow.Diagram.all_fields d1 = Mdp_dataflow.Diagram.all_fields d2
    && List.length d1.Mdp_dataflow.Diagram.services
       = List.length d2.Mdp_dataflow.Diagram.services)

let test_synthetic_dataset_shape () =
  let ds = Syn.dataset ~seed:5 ~rows:40 ~quasi:3 in
  check int_ "rows" 40 (A.Dataset.nrows ds);
  check int_ "cols" 4 (A.Dataset.ncols ds);
  check int_ "quasi count" 3 (List.length (A.Dataset.quasi_indices ds));
  check int_ "scheme covers quasi" 3 (List.length (Syn.scheme_for ~quasi:3))

let test_synthetic_full_pipeline () =
  let diagram, policy = Syn.model (spec 31) in
  let profile = Syn.profile (spec 31) diagram in
  let a = Core.Analysis.run ~profile diagram policy in
  check bool_ "analysis completes" true (Core.Plts.num_states a.lts >= 1)

let () =
  Alcotest.run "scenario"
    [
      ( "healthcare",
        [
          Alcotest.test_case "model shape" `Quick test_healthcare_well_formed;
          Alcotest.test_case "study model" `Quick test_study_well_formed;
          Alcotest.test_case "table1 artefacts" `Quick test_table1_dataset;
        ] );
      ( "smart home",
        [ Alcotest.test_case "risk pipeline" `Quick test_smart_home_pipeline ] );
      ( "synthetic",
        [
          Alcotest.test_case "valid models" `Quick test_synthetic_model_valid;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "dataset shape" `Quick test_synthetic_dataset_shape;
          Alcotest.test_case "full pipeline" `Quick test_synthetic_full_pipeline;
        ] );
    ]
