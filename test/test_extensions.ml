(* Tests for the extension modules: declarative requirements checking,
   questionnaire-based profiles, population-level aggregation and
   t-closeness. *)

open Mdp_dataflow
module Core = Mdp_core
module A = Mdp_anon
module H = Mdp_scenario.Healthcare
module V = A.Value

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let level_t = Alcotest.testable Core.Level.pp Core.Level.equal

let setup () =
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  (u, lts)

(* ------------------------------------------------------------------ *)
(* Requirements *)

let test_requirement_never_identifies () =
  let u, lts = setup () in
  (* The Administrator does identify the Diagnosis (via its EHR read):
     requirement violated, with a witness ending in that acquisition. *)
  let req =
    Core.Requirement.Never_identifies { actor = "Administrator"; field = H.diagnosis }
  in
  (match Core.Requirement.check ~annotate:Fun.id u lts [ req ] with
  | [ v ] ->
    check bool_ "witness non-empty" true (v.witness <> []);
    let last = List.nth v.witness (List.length v.witness - 1) in
    check Alcotest.string "acquired by the administrator" "Administrator"
      last.Core.Action.actor
  | _ -> Alcotest.fail "expected exactly one violation");
  (* The Receptionist never sees the Diagnosis. *)
  check bool_ "receptionist clean" true
    (Core.Requirement.holds ~annotate:Fun.id u lts
       (Core.Requirement.Never_identifies
          { actor = "Receptionist"; field = H.diagnosis }))

let test_requirement_could_stronger_than_has () =
  let u = Core.Universe.make H.diagram H.fixed_policy in
  let lts = Core.Generate.run u in
  (* After the fix the Administrator never identifies the Diagnosis... *)
  check bool_ "has-requirement holds after fix" true
    (Core.Requirement.holds ~annotate:Fun.id u lts
       (Core.Requirement.Never_identifies
          { actor = "Administrator"; field = H.diagnosis }));
  (* ...and could-never holds as well (the deny removed read access). *)
  check bool_ "could-requirement also holds" true
    (Core.Requirement.holds ~annotate:Fun.id u lts
       (Core.Requirement.Never_could_identify
          { actor = "Administrator"; field = H.diagnosis }))

let test_requirement_purposes () =
  let u, lts = setup () in
  (* Diagnosis flows for recording and research preparation; potential
     reads carry no purpose, so a strict purpose requirement fails. *)
  let strict =
    Core.Requirement.Only_for_purposes
      { field = H.diagnosis; purposes = [ "record diagnosis and treatment" ] }
  in
  check bool_ "strict purposes violated" false
    (Core.Requirement.holds ~annotate:Fun.id u lts strict);
  (* Appointment data flows only within the medical service's purposes. *)
  let appointment_req =
    Core.Requirement.Only_for_purposes
      {
        field = H.appointment;
        purposes = [ "schedule appointment"; "prepare consultation" ];
      }
  in
  (* Violated too: the Nurse's potential read of Appointments has no
     purpose. The flow-only model satisfies it. *)
  check bool_ "violated with potential reads" false
    (Core.Requirement.holds ~annotate:Fun.id u lts appointment_req);
  let flow_lts = Core.Generate.run ~options:Core.Generate.flow_only u in
  check bool_ "holds on flows only" true
    (Core.Requirement.holds ~annotate:Fun.id u flow_lts appointment_req)

let test_requirement_no_action () =
  let u, lts = setup () in
  check bool_ "researcher never creates" true
    (Core.Requirement.holds ~annotate:Fun.id u lts
       (Core.Requirement.No_action_by { actor = "Researcher"; kind = Core.Action.Create }));
  check bool_ "administrator anonymises" false
    (Core.Requirement.holds ~annotate:Fun.id u lts
       (Core.Requirement.No_action_by
          { actor = "Administrator"; kind = Core.Action.Anon }))

(* The reference engine's annotation of one label: what
   [Disclosure_risk.analyse] attaches to a read. *)
let naive_annotate u profile (label : Core.Action.t) =
  match label.kind with
  | Core.Action.Read ->
    Core.Action.with_risk label
      (Core.Risk_matrix.assess Core.Risk_matrix.default
         ~impact:(Core.Disclosure_risk.transition_impact u profile label)
         ~likelihood:
           (Core.Disclosure_risk.transition_likelihood u profile
              Core.Disclosure_risk.default_likelihood label))
  | _ -> label

let test_requirement_max_risk () =
  let u, lts = setup () in
  let annotate = naive_annotate u H.profile_case_a in
  check bool_ "medium exceeds low cap" false
    (Core.Requirement.holds ~annotate u lts
       (Core.Requirement.Max_disclosure_risk Core.Level.Low));
  check bool_ "medium within medium cap" true
    (Core.Requirement.holds ~annotate u lts
       (Core.Requirement.Max_disclosure_risk Core.Level.Medium))

(* [mdpriv check] annotates through the compiled plan; the reference
   engine's annotation must yield the same violations, witness
   annotations included. *)
let test_requirement_engines_agree () =
  let synth =
    match Mdp_scenario.Synthetic.spec_of_string "synthetic:6-8-4@3" with
    | Some (Ok spec) ->
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      (diagram, policy, Mdp_scenario.Synthetic.profile spec diagram)
    | _ -> Alcotest.fail "bad synthetic spec"
  in
  List.iter
    (fun (name, (diagram, policy, profile)) ->
      let violations annotator =
        let u = Core.Universe.make diagram policy in
        let lts = Core.Generate.run u in
        let annotate = annotator u lts in
        let reqs =
          List.map
            (fun l -> Core.Requirement.Max_disclosure_risk l)
            Core.Level.[ None_; Low; Medium; High ]
          @ List.concat_map
              (fun (a : Actor.t) ->
                List.map
                  (fun field ->
                    Core.Requirement.Never_identifies { actor = a.id; field })
                  (Diagram.all_fields diagram))
              diagram.Diagram.actors
        in
        List.map
          (fun (v : Core.Requirement.violation) ->
            ( (match v.requirement with
              | Core.Requirement.Max_disclosure_risk _ -> true
              | _ -> false),
              Format.asprintf "%a" Core.Requirement.pp_violation v ))
          (Core.Requirement.check ~annotate u lts reqs)
      in
      let naive = violations (fun u _ -> naive_annotate u profile) in
      let planned =
        violations (fun u lts ->
            Core.Risk_plan.annotate (Core.Risk_plan.compile u lts) profile)
      in
      check bool_ (name ^ ": a risk cap is violated") true
        (List.exists fst naive);
      check
        (Alcotest.list (Alcotest.pair bool_ Alcotest.string))
        (name ^ ": violations") naive planned)
    [
      ("healthcare", (H.diagram, H.policy, H.profile_case_a)); ("synthetic", synth);
    ]

let test_requirement_witness_replays () =
  let u, lts = setup () in
  match
    Core.Requirement.check ~annotate:Fun.id u lts
      [ Core.Requirement.Never_identifies { actor = "Researcher"; field = Field.anon_of H.diagnosis } ]
  with
  | [ v ] ->
    (* Walk the witness through the LTS. *)
    let state = ref (Core.Plts.initial lts) in
    List.iter
      (fun (a : Core.Action.t) ->
        match
          List.find_opt
            (fun ((l : Core.Action.t), _) -> Core.Action.equal l a)
            (Core.Plts.successors lts !state)
        with
        | Some (_, next) -> state := next
        | None -> Alcotest.fail "witness step missing")
      v.witness;
    let cfg = Core.Plts.state_data lts !state in
    check bool_ "witness end state shows the identification" true
      (Core.Privacy_state.has u cfg.Core.Config.privacy ~actor:"Researcher"
         ~field:(Field.anon_of H.diagnosis))
  | _ -> Alcotest.fail "expected one violation"


let test_requirement_spec_parsing () =
  let reqs =
    [
      ( "never=Administrator:Diagnosis",
        Core.Requirement.Never_identifies
          { actor = "Administrator"; field = H.diagnosis } );
      ( "nevercould=Researcher:Diagnosis~anon",
        Core.Requirement.Never_could_identify
          { actor = "Researcher"; field = Field.anon_of H.diagnosis } );
      ( "noaction=Researcher:create",
        Core.Requirement.No_action_by
          { actor = "Researcher"; kind = Core.Action.Create } );
      ( "purposes=Appointment:a;b",
        Core.Requirement.Only_for_purposes
          { field = H.appointment; purposes = [ "a"; "b" ] } );
      ("maxrisk=Low", Core.Requirement.Max_disclosure_risk Core.Level.Low);
    ]
  in
  List.iter
    (fun (spec, r) ->
      match Core.Requirement.of_spec spec with
      | Ok r' -> check bool_ spec true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  List.iter
    (fun bad ->
      match Core.Requirement.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "never"; "never=A"; "noaction=A:fly"; "maxrisk=Extreme"; "frobnicate=1" ]

(* ------------------------------------------------------------------ *)
(* Questionnaire *)

let test_questionnaire_baselines () =
  let q = Core.Questionnaire.profile H.diagram Core.Questionnaire.Fundamentalist
      ~agreed_services:[ H.medical_service ] ~answers:[] in
  check (Alcotest.float 1e-9) "fundamentalist baseline" 0.8
    (Core.User_profile.sensitivity q H.treatment);
  check (Alcotest.float 1e-9) "anon variant stays 0" 0.0
    (Core.User_profile.sensitivity q (Field.anon_of H.treatment));
  let u = Core.Questionnaire.profile H.diagram Core.Questionnaire.Unconcerned
      ~agreed_services:[] ~answers:[] in
  check (Alcotest.float 1e-9) "unconcerned baseline" 0.15
    (Core.User_profile.sensitivity u H.treatment)

let test_questionnaire_overrides () =
  let q =
    Core.Questionnaire.profile H.diagram Core.Questionnaire.Unconcerned
      ~agreed_services:[ H.medical_service ]
      ~answers:
        [
          { field = H.diagnosis; concern = Core.Questionnaire.Very_concerned };
          {
            field = Field.anon_of H.diagnosis;
            concern = Core.Questionnaire.Somewhat_concerned;
          };
        ]
  in
  check (Alcotest.float 1e-9) "override wins" 0.9
    (Core.User_profile.sensitivity q H.diagnosis);
  check (Alcotest.float 1e-9) "anon override honoured" 0.5
    (Core.User_profile.sensitivity q (Field.anon_of H.diagnosis));
  check (Alcotest.float 1e-9) "others keep baseline" 0.15
    (Core.User_profile.sensitivity q H.name)

(* ------------------------------------------------------------------ *)
(* Population *)

let spec size =
  {
    Core.Population.seed = 7;
    size;
    westin_mix = Core.Population.default_mix;
    agree_probability = 0.7;
  }

let test_population_simulate_deterministic () =
  let a = Core.Population.simulate (spec 40) H.diagram in
  let b = Core.Population.simulate (spec 40) H.diagram in
  check int_ "size" 40 (List.length a);
  check bool_ "deterministic" true
    (List.for_all2
       (fun p q ->
         Core.User_profile.agreed_services p = Core.User_profile.agreed_services q)
       a b)

let test_population_aggregate () =
  let u, lts = setup () in
  let profiles = Core.Population.simulate (spec 60) H.diagram in
  let agg = Core.Population.analyse u lts profiles in
  check int_ "total" 60 agg.total;
  check int_ "level counts sum to total" 60
    (Mdp_prelude.Listx.sum_by snd agg.by_level);
  (* Fundamentalists who skipped the research service must push some
     users above None. *)
  check bool_ "some users at risk" true
    (List.exists (fun (l, c) -> l <> Core.Level.None_ && c > 0) agg.by_level);
  (* The administrator EHR access should be the top hotspot. *)
  match agg.hotspots with
  | top :: _ ->
    check Alcotest.string "top hotspot actor" "Administrator" top.actor;
    check bool_ "top hotspot store" true (top.store = Some "EHR")
  | [] -> Alcotest.fail "expected hotspots"

let test_population_fix_improves () =
  let u, lts = setup () in
  let profiles = Core.Population.simulate (spec 60) H.diagram in
  let before = Core.Population.analyse u lts profiles in
  let u' = Core.Universe.with_policy u H.fixed_policy in
  let lts' = Core.Generate.run u' in
  let after = Core.Population.analyse u' lts' profiles in
  let count level agg =
    Option.value (List.assoc_opt level agg.Core.Population.by_level) ~default:0
  in
  check bool_ "fewer or equal high-risk users after fix" true
    (count Core.Level.High after <= count Core.Level.High before
    && count Core.Level.Medium after <= count Core.Level.Medium before)

(* ------------------------------------------------------------------ *)
(* t-closeness *)

let test_tcloseness_table1 () =
  match Mdp_release.Tcloseness.numeric_emd H.table1_released ~sensitive:"Weight" with
  | Some emd ->
    (* Table I's classes are heavily skewed: far from the global
       distribution. *)
    check bool_ "positive distance" true (emd > 0.3);
    check bool_ "not 0.1-close" false
      (Mdp_release.Tcloseness.is_t_close ~t:0.1 H.table1_released ~sensitive:"Weight");
    check bool_ "1.0-close trivially" true
      (Mdp_release.Tcloseness.is_t_close ~t:1.0 H.table1_released ~sensitive:"Weight")
  | None -> Alcotest.fail "weight is numeric"

let test_tcloseness_uniform_is_zero () =
  (* One class = the whole table: EMD 0. *)
  let ds =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive;
        ]
      ~rows:[ [ V.Int 1; V.Int 10 ]; [ V.Int 1; V.Int 20 ]; [ V.Int 1; V.Int 30 ] ]
  in
  (match Mdp_release.Tcloseness.numeric_emd ds ~sensitive:"S" with
  | Some emd -> check (Alcotest.float 1e-9) "zero distance" 0.0 emd
  | None -> Alcotest.fail "numeric expected");
  check bool_ "0-close" true (Mdp_release.Tcloseness.is_t_close ~t:0.0 ds ~sensitive:"S")

let test_tcloseness_categorical () =
  let ds =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive;
        ]
      ~rows:
        [
          [ V.Int 1; V.Str "flu" ];
          [ V.Int 1; V.Str "flu" ];
          [ V.Int 2; V.Str "cancer" ];
          [ V.Int 2; V.Str "cancer" ];
        ]
  in
  match Mdp_release.Tcloseness.categorical_distance ds ~sensitive:"S" with
  | Some d ->
    (* Each class shows one value with global probability 1/2: TV = 1/2. *)
    check (Alcotest.float 1e-9) "total variation" 0.5 d
  | None -> Alcotest.fail "categorical expected"

let prop_tcloseness_bounds =
  QCheck.Test.make ~name:"numeric EMD lies in [0,1]" ~count:30
    QCheck.(int_range 10 60)
    (fun rows ->
      let ds = Mdp_scenario.Synthetic.dataset ~seed:rows ~rows ~quasi:2 in
      let gen =
        A.Kanon.apply ds
          (Mdp_scenario.Synthetic.scheme_for ~quasi:2)
          [ ("Q0", 1); ("Q1", 1) ]
      in
      match Mdp_release.Tcloseness.numeric_emd gen ~sensitive:"S" with
      | Some d -> d >= 0.0 && d <= 1.0 +. 1e-9
      | None -> false)

let () =
  ignore level_t;
  Alcotest.run "extensions"
    [
      ( "requirements",
        [
          Alcotest.test_case "never identifies" `Quick test_requirement_never_identifies;
          Alcotest.test_case "could vs has" `Quick test_requirement_could_stronger_than_has;
          Alcotest.test_case "purposes" `Quick test_requirement_purposes;
          Alcotest.test_case "no action by" `Quick test_requirement_no_action;
          Alcotest.test_case "max risk" `Quick test_requirement_max_risk;
          Alcotest.test_case "max risk engines agree" `Quick
            test_requirement_engines_agree;
          Alcotest.test_case "witness replays" `Quick test_requirement_witness_replays;
          Alcotest.test_case "spec parsing" `Quick test_requirement_spec_parsing;
        ] );
      ( "questionnaire",
        [
          Alcotest.test_case "baselines" `Quick test_questionnaire_baselines;
          Alcotest.test_case "overrides" `Quick test_questionnaire_overrides;
        ] );
      ( "population",
        [
          Alcotest.test_case "simulate deterministic" `Quick
            test_population_simulate_deterministic;
          Alcotest.test_case "aggregate" `Quick test_population_aggregate;
          Alcotest.test_case "fix improves" `Quick test_population_fix_improves;
        ] );
      ( "t-closeness",
        [
          Alcotest.test_case "table1 skew" `Quick test_tcloseness_table1;
          Alcotest.test_case "single class" `Quick test_tcloseness_uniform_is_zero;
          Alcotest.test_case "categorical" `Quick test_tcloseness_categorical;
          QCheck_alcotest.to_alcotest prop_tcloseness_bounds;
        ] );
    ]
