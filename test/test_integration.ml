(* End-to-end integration tests: the full §IV-A and §IV-B case studies
   through the façade, DSL-sourced models through generation, analysis
   and monitoring, and cross-cutting invariants tying the layers
   together. *)

open Mdp_dataflow
module Core = Mdp_core
module R = Mdp_runtime
module A = Mdp_anon
module H = Mdp_scenario.Healthcare

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let level_t = Alcotest.testable Core.Level.pp Core.Level.equal

(* ------------------------------------------------------------------ *)
(* §IV-A, fully replayed through the façade *)

let test_case_a_end_to_end () =
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let report = Option.get a.disclosure in
  (* Paper: "This first determined the actors that are non-allowed (the
     Administrator and Researcher)". *)
  check (Alcotest.list Alcotest.string) "non-allowed"
    [ "Administrator"; "Researcher" ] report.non_allowed;
  (* Paper: "the transition is labelled with a risk level of Medium". *)
  check level_t "Medium" Core.Level.Medium
    (Core.Disclosure_risk.level_for report ~actor:"Administrator" ~store:"EHR"
       ~field:H.diagnosis);
  (* Paper: "The access policies were changed accordingly and the risk
     level was reduced to Low". *)
  let a' = Core.Analysis.rerun_with_policy a H.fixed_policy in
  check level_t "Low" Core.Level.Low
    (Core.Disclosure_risk.max_level (Option.get a'.disclosure))

(* ------------------------------------------------------------------ *)
(* §IV-B, fully replayed *)

let test_case_b_end_to_end () =
  (* Datafly with k=2 independently rediscovers the paper's
     generalisation. *)
  let raw = A.Dataset.drop_identifiers H.table1_raw in
  (match Mdp_release.Kanonymity.datafly ~k:2 raw H.table1_scheme with
  | Ok (ds, levels, 0) ->
    check bool_ "datafly matches the prepared release" true
      (A.Dataset.rows ds = A.Dataset.rows H.table1_released);
    check (Alcotest.list (Alcotest.pair Alcotest.string int_)) "levels"
      [ ("Age", 1); ("Height", 1) ]
      (List.sort compare levels)
  | Ok (_, _, n) -> Alcotest.failf "unexpected suppression of %d rows" n
  | Error e -> Alcotest.fail e);
  (* The LTS risk-transitions carry Fig. 4's violation scores. *)
  let options = { Core.Generate.default_options with granular_reads = true } in
  let a =
    Core.Analysis.run ~options ~bindings:[ H.study_binding ] H.study_diagram
      H.study_policy
  in
  let violations =
    List.sort_uniq Int.compare
      (List.map
         (fun (rt : Core.Pseudonym_risk.risk_transition) ->
           rt.report.A.Value_risk.violations)
         a.pseudonym)
  in
  check (Alcotest.list int_) "violation scores 0/2/4" [ 0; 2; 4 ] violations

(* ------------------------------------------------------------------ *)
(* DSL file -> pipeline -> monitor *)

let healthcare_text =
  Mdp_dsl.Printer.to_string
    { Mdp_dsl.Parser.diagram = H.diagram; policy = H.policy; placement = None }

let test_dsl_to_monitor () =
  match Mdp_dsl.Parser.parse healthcare_text with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let a =
      Core.Analysis.run ~profile:H.profile_case_a m.Mdp_dsl.Parser.diagram
        m.Mdp_dsl.Parser.policy
    in
    (* Parsed model behaves identically to the programmatic one. *)
    let direct = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
    check int_ "same state count" (Core.Plts.num_states direct.lts)
      (Core.Plts.num_states a.lts);
    check int_ "same transition count"
      (Core.Plts.num_transitions direct.lts)
      (Core.Plts.num_transitions a.lts);
    (* ... and supports monitoring. *)
    let monitor =
      R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
    in
    let trace =
      R.Sim.run_exn a.universe
        {
          seed = 5;
          services = [ H.medical_service; H.research_service ];
          snoopers =
            [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ];
        }
    in
    let alerts = R.Monitor.run_trace monitor trace in
    check bool_ "snoop flagged" true
      (List.exists (function R.Monitor.Risky _ -> true | _ -> false) alerts)

(* ------------------------------------------------------------------ *)
(* Cross-cutting invariants *)

let test_has_implies_monotone_along_paths () =
  (* Along every transition, has-bits only grow (deletes touch stores and
     could-bits, never has). *)
  let u = Core.Universe.make H.diagram H.policy in
  let lts =
    Core.Generate.run
      ~options:{ Core.Generate.default_options with potential_deletes = true }
      u
  in
  Core.Plts.iter_transitions lts (fun tr ->
      let src = Core.Plts.state_data lts tr.src in
      let dst = Core.Plts.state_data lts tr.dst in
      if
        not
          (Mdp_prelude.Bitset.subset src.Core.Config.privacy.Core.Privacy_state.has
             dst.Core.Config.privacy.Core.Privacy_state.has)
      then Alcotest.fail "has-bits shrank along a transition")

let test_could_matches_store_contents () =
  (* Invariant: could(a, f) iff some store holds f with a permitted to
     read it there. *)
  let u = Core.Universe.make H.diagram H.policy in
  let lts =
    Core.Generate.run
      ~options:{ Core.Generate.default_options with potential_deletes = true }
      u
  in
  Core.Plts.iter_states lts (fun s ->
      let cfg = Core.Plts.state_data lts s in
      for a = 0 to Core.Universe.nactors u - 1 do
        for f = 0 to Core.Universe.nfields u - 1 do
          let expected =
            List.exists
              (fun store ->
                Mdp_prelude.Bitset.get cfg.Core.Config.stores.(store) f
                && List.mem a (Core.Universe.readers u ~store ~field:f))
              (List.init (Core.Universe.nstores u) Fun.id)
          in
          let actual =
            Core.Privacy_state.could_i cfg.Core.Config.privacy
              (Core.Universe.var u ~actor:a ~field:f)
          in
          if expected <> actual then
            Alcotest.failf "could mismatch at state %d actor %d field %d" s a f
        done
      done)

let test_fig2_table_dimensions () =
  (* Fig. 2's table: 60 base-state-variable pairs for the healthcare
     model (5 actors x 6 base fields), each with has+could. *)
  let u = Core.Universe.make H.diagram H.policy in
  let base_fields =
    List.filter (fun f -> not (Field.is_anon f)) (Diagram.all_fields H.diagram)
  in
  check int_ "paper's 60 variables" 60
    (2 * Core.Universe.nactors u * List.length base_fields)

let test_monitor_follows_witness () =
  (* Feeding a finding's witness path as events drives the monitor to the
     finding's source state. *)
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let report = Option.get a.disclosure in
  let finding = List.hd report.findings in
  let monitor =
    R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
  in
  let to_event i (act : Core.Action.t) =
    let service =
      match act.provenance with
      | Core.Action.From_flow { service; _ } -> Some service
      | Core.Action.Potential -> None
    in
    R.Event.make ~time:(i + 1) ~kind:act.kind ~actor:act.actor
      ~fields:act.fields ?store:act.store ?service ()
  in
  let alerts =
    R.Monitor.run_trace monitor (List.mapi to_event (Core.Disclosure_risk.witness finding))
  in
  check bool_ "witness replays without off-model alerts" true
    (List.for_all
       (function R.Monitor.Off_model _ -> false | _ -> true)
       alerts);
  check int_ "monitor lands on the finding source" finding.src
    (R.Monitor.current_state monitor)

(* An explored LTS is never written: every analysis returns its
   annotations beside it. The fingerprint is every row (label id,
   destination) plus the printed interned labels. *)
let fingerprint lts =
  let rows =
    List.init (Core.Plts.num_states lts) (fun s ->
        let row = ref [] in
        Core.Plts.iter_successors_lid lts s (fun l d -> row := (l, d) :: !row);
        List.rev !row)
  in
  let labels =
    Array.map
      (Format.asprintf "%a" Core.Action.pp)
      (Option.get (Core.Plts.interned_labels lts))
  in
  (rows, labels)

let test_analyses_leave_lts_untouched () =
  let synthetic name =
    match Mdp_scenario.Synthetic.spec_of_string name with
    | Some (Ok spec) ->
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      (name, diagram, policy, Mdp_scenario.Synthetic.profile spec diagram)
    | _ -> Alcotest.failf "bad spec %s" name
  in
  List.iter
    (fun (name, diagram, policy, profile) ->
      let a = Core.Analysis.run ~profile diagram policy in
      let u = a.universe and lts = a.lts in
      let expected = fingerprint (Core.Generate.run u) in
      let unchanged what =
        check bool_ (name ^ ": LTS unchanged by " ^ what) true
          (fingerprint lts = expected)
      in
      unchanged "Analysis.run";
      ignore (Core.Risk_plan.analyse (Option.get a.plan) profile);
      unchanged "Risk_plan.analyse";
      ignore (Core.Disclosure_risk.analyse u lts profile);
      unchanged "Disclosure_risk.analyse";
      ignore
        (Core.Population.analyse u lts
           [ profile; Core.User_profile.make ~agreed_services:[] () ]);
      unchanged "Population.analyse";
      let base = Result.get_ok (Core.Whatif.prepare a) in
      let exact edit =
        match Core.Whatif.eval_edit ~exact:true base edit with
        | Ok o ->
          unchanged ("exact what-if " ^ Core.Edit.to_string edit);
          o.classification
        | Error e -> Alcotest.fail e
      in
      ignore
        (exact
           (Core.Edit.Set_sensitivity (List.hd (Diagram.all_fields diagram), 0.0)));
      (* A profile edit that keeps the LTS but re-analyses on it. *)
      let service = (List.hd diagram.Diagram.services).Service.id in
      check bool_ (name ^ ": agreement edit replays") true
        (exact
           (Core.Edit.Set_agreement
              {
                service;
                agreed = not (Core.User_profile.agrees_to profile service);
              })
        = Core.Whatif.Replay))
    (("healthcare", H.diagram, H.policy, H.profile_case_a)
    :: List.map synthetic
         [ "synthetic:2-4-3@1"; "synthetic:4-6-4@2"; "synthetic:6-8-5@3" ])

let () =
  Alcotest.run "integration"
    [
      ( "case studies",
        [
          Alcotest.test_case "section IV-A end to end" `Quick test_case_a_end_to_end;
          Alcotest.test_case "section IV-B end to end" `Quick test_case_b_end_to_end;
        ] );
      ( "dsl pipeline",
        [ Alcotest.test_case "file to monitor" `Quick test_dsl_to_monitor ] );
      ( "invariants",
        [
          Alcotest.test_case "has monotone" `Quick
            test_has_implies_monotone_along_paths;
          Alcotest.test_case "could = store x policy" `Quick
            test_could_matches_store_contents;
          Alcotest.test_case "monitor follows witness" `Quick
            test_monitor_follows_witness;
          Alcotest.test_case "Fig 2 dimensions" `Quick test_fig2_table_dimensions;
          Alcotest.test_case "analyses leave the LTS untouched" `Quick
            test_analyses_leave_lts_untouched;
        ] );
    ]
