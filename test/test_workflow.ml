(* Tests for the workflow helpers: report diffing across policy edits and
   multi-subject monitoring fleets. *)

module Core = Mdp_core
module R = Mdp_runtime
module H = Mdp_scenario.Healthcare

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let reports () =
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  let before = Core.Disclosure_risk.analyse u lts H.profile_case_a in
  let u' = Core.Universe.with_policy u H.fixed_policy in
  let lts' = Core.Generate.run u' in
  let after = Core.Disclosure_risk.analyse u' lts' H.profile_case_a in
  (before, after)

(* ------------------------------------------------------------------ *)
(* Risk_diff *)

let test_diff_fix () =
  let before, after = reports () in
  let d = Core.Risk_diff.diff ~before ~after in
  (* The fix removes Diagnosis from the Administrator's reads: the old
     5-field signature disappears and a 4-field one appears at a lower
     level, so the diff shows removals and additions but improvement in
     the worst level. *)
  check bool_ "something changed" true
    (d.removed <> [] || d.changed <> []);
  let worst changes =
    List.fold_left (fun acc c -> Core.Level.max acc c.Core.Risk_diff.after)
      Core.Level.None_ changes
  in
  check bool_ "no new access at Medium or above" true
    (Core.Level.compare (worst d.added) Core.Level.Low <= 0);
  (* Every removed signature carried Diagnosis or was the admin's. *)
  List.iter
    (fun (c : Core.Risk_diff.change) ->
      check bool_ "removed signatures mention Diagnosis" true
        (List.mem "Diagnosis" c.signature.fields))
    d.removed

let test_diff_identity () =
  let before, _ = reports () in
  let d = Core.Risk_diff.diff ~before ~after:before in
  check int_ "no removals" 0 (List.length d.removed);
  check int_ "no additions" 0 (List.length d.added);
  check int_ "no level changes" 0 (List.length d.changed);
  check bool_ "identity improves trivially" true (Core.Risk_diff.improved d);
  check bool_ "unchanged counted" true (d.unchanged > 0)

let test_diff_regression_detected () =
  let before, after = reports () in
  (* Swapping the arguments turns the fix into a regression. *)
  let d = Core.Risk_diff.diff ~before:after ~after:before in
  check bool_ "regression is not an improvement" false (Core.Risk_diff.improved d)

(* ------------------------------------------------------------------ *)
(* One monitor per subject *)

(* The privacy LTS is per data subject: a deployed service runs one
   monitor per subject, all over the same LTS and [annotate] map. *)
let monitors_setup () =
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let create () =
    R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
  in
  (a, create (), create ())

let trace_for a seed =
  R.Sim.run_exn a.Core.Analysis.universe
    {
      seed;
      services = [ H.medical_service ];
      snoopers =
        [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ];
    }

let test_fleet_isolates_subjects () =
  let a, alice, bob = monitors_setup () in
  let t1 = trace_for a 1 and t2 = trace_for a 2 in
  (* Interleave two subjects' traces event by event. *)
  let alice_alerts = ref [] and bob_alerts = ref [] in
  let rec interleave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.map (fun e -> (bob, bob_alerts, e)) rest
    | x :: xs, y :: ys ->
      (alice, alice_alerts, x) :: (bob, bob_alerts, y) :: interleave xs ys
  in
  List.iter
    (fun (m, alerts, event) -> alerts := !alerts @ R.Monitor.observe m event)
    (interleave t1 t2);
  (* Both subjects completed their medical service + snoop: same final
     state, independently tracked. *)
  check int_ "same journey, same state" (R.Monitor.current_state alice)
    (R.Monitor.current_state bob);
  (* Each subject's snoop raised its own risky alert. *)
  let risky alerts =
    Mdp_prelude.Listx.count
      (function R.Monitor.Risky _ -> true | _ -> false)
      !alerts
  in
  check int_ "alice risky alerts" 1 (risky alice_alerts);
  check int_ "bob risky alerts" 1 (risky bob_alerts);
  check int_ "total alerts" 2
    (List.length !alice_alerts + List.length !bob_alerts)

let test_fleet_interleaving_no_crosstalk () =
  (* A subject's events never advance another subject's monitor, though
     both share one LTS: bob's first event must leave alice's state
     untouched. *)
  let a, alice, bob = monitors_setup () in
  let t = trace_for a 3 in
  ignore (R.Monitor.run_trace alice t);
  let alice_state = R.Monitor.current_state alice in
  check int_ "bob unseen" (Core.Plts.initial a.lts) (R.Monitor.current_state bob);
  ignore (R.Monitor.observe bob (List.hd t));
  check bool_ "bob at step one, alice at the end" true
    (R.Monitor.current_state bob <> alice_state);
  check int_ "alice unmoved" alice_state (R.Monitor.current_state alice);
  check int_ "alice's duplicate memory not shared" 0
    (R.Monitor.stats bob).duplicates

(* ------------------------------------------------------------------ *)
(* Sim/monitor agreement on synthetic models *)

let prop_sim_stays_on_model =
  (* For any synthetic model, a simulated full-service trace (no
     snoopers) replays through the monitor without off-model or denied
     alerts: the simulator, the enforcement point and the generator agree
     on the semantics. *)
  QCheck.Test.make ~name:"simulated traces stay on-model" ~count:25
    QCheck.(pair (int_range 1 300) (int_range 1 50))
    (fun (model_seed, sim_seed) ->
      let spec =
        {
          Mdp_scenario.Synthetic.seed = model_seed;
          nactors = 3;
          nfields = 4;
          nstores = 2;
          nservices = 2;
          flows_per_service = 4;
        }
      in
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      let u = Core.Universe.make diagram policy in
      let lts = Core.Generate.run u in
      let services =
        List.map
          (fun (s : Mdp_dataflow.Service.t) -> s.id)
          diagram.Mdp_dataflow.Diagram.services
      in
      let trace = R.Sim.run_exn u { seed = sim_seed; services; snoopers = [] } in
      let monitor = R.Monitor.create ~annotate:Fun.id u lts in
      List.for_all
        (function
          | R.Monitor.Off_model _ | R.Monitor.Denied _
          | R.Monitor.Resynced _ -> false
          | R.Monitor.Risky _ -> true)
        (R.Monitor.run_trace monitor trace))

let () =
  Alcotest.run "workflow"
    [
      ( "risk diff",
        [
          Alcotest.test_case "the IV-A fix" `Quick test_diff_fix;
          Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "regression detected" `Quick test_diff_regression_detected;
        ] );
      ( "sim/monitor agreement",
        [ QCheck_alcotest.to_alcotest prop_sim_stays_on_model ] );
      ( "fleet",
        [
          Alcotest.test_case "isolates subjects" `Quick test_fleet_isolates_subjects;
          Alcotest.test_case "no crosstalk" `Quick test_fleet_interleaving_no_crosstalk;
        ] );
    ]
