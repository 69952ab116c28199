(* Paper reproduction harness.

   Regenerates every evaluation artefact of the paper (Fig. 1-4,
   Table I, the §IV-A risk levels) plus the ablations DESIGN.md calls
   out, two scaling tables and a fault-injection run of the fleet
   monitor. `dune exec bench/main.exe` prints them all; it takes no
   flags. Performance is measured by the benchmark suite in
   bench/suite/ (see BENCHMARK.json). *)

open Mdp_scenario
module Core = Mdp_core
module A = Mdp_anon
module Rel = Mdp_release
module H = Healthcare
module Frac = Mdp_prelude.Frac

let section title =
  Printf.printf "\n================ %s ================\n" title

(* Monotonic seconds for [f ()]: [warmup] discarded runs, then the
   median of [runs] timed ones — single samples are too noisy to
   compare engines with. Timing goes through Mdp_obs.Clock
   (CLOCK_MONOTONIC), so an NTP step mid-run cannot skew a sample. *)
let time_median ?(warmup = 1) ?(runs = 5) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let samples =
    List.init runs (fun _ ->
        snd (Mdp_obs.Clock.time (fun () -> ignore (f ()))))
  in
  match List.sort Float.compare samples with
  | [] -> 0.
  | sorted -> List.nth sorted (runs / 2)

(* ------------------------------------------------------------------ *)
(* Fig. 1: the healthcare data-flow model *)

let fig1 () =
  section "[fig1] Data-flow diagrams for the healthcare service";
  Format.printf "%a@." Mdp_dataflow.Diagram.pp H.diagram;
  Printf.printf "(DOT available via: mdpriv dot models/healthcare.mdp)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 2: the state-variable table of a privacy state *)

let fig2 () =
  section "[fig2] State-based model of user privacy";
  let u = Core.Universe.make H.diagram H.policy in
  let base_fields =
    List.filter
      (fun f -> not (Mdp_dataflow.Field.is_anon f))
      (Mdp_dataflow.Diagram.all_fields H.diagram)
  in
  Printf.printf
    "state variables: 2 * %d actors * %d fields = %d Booleans (paper: 60)\n\n"
    (Core.Universe.nactors u)
    (List.length base_fields)
    (2 * Core.Universe.nactors u * List.length base_fields);
  (* Show the table after the first two medical-service flows. *)
  let lts =
    Core.Generate.run
      ~options:
        { Core.Generate.flow_only with services = Some [ H.medical_service ] }
      u
  in
  let two_steps =
    match Core.Plts.successors lts (Core.Plts.initial lts) with
    | (_, s1) :: _ -> (
      match Core.Plts.successors lts s1 with (_, s2) :: _ -> s2 | [] -> s1)
    | [] -> Core.Plts.initial lts
  in
  Printf.printf "privacy state after the first two flows (s%d):\n" two_steps;
  Format.printf "%a@."
    (Core.Privacy_state.pp_table u)
    (Core.Plts.state_data lts two_steps).Core.Config.privacy

(* ------------------------------------------------------------------ *)
(* Fig. 3: the Medical Service LTS *)

let fig3 () =
  section "[fig3] LTS of the Medical Service process";
  let u = Core.Universe.make H.diagram H.policy in
  let lts =
    Core.Generate.run
      ~options:
        { Core.Generate.flow_only with services = Some [ H.medical_service ] }
      u
  in
  Printf.printf "%s\n\n" (Core.Lts_render.summary u lts);
  Core.Plts.iter_transitions lts (fun tr ->
      Format.printf "  s%d --%a--> s%d@." tr.src Core.Action.pp tr.label tr.dst)

(* ------------------------------------------------------------------ *)
(* §IV-A: unwanted disclosure case study *)

let case_a () =
  section "[case-a] Identifying unwanted disclosure (paper IV-A)";
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let report = Option.get a.disclosure in
  Printf.printf "non-allowed actors: %s   (paper: Administrator, Researcher)\n"
    (String.concat ", " report.non_allowed);
  let level =
    Core.Disclosure_risk.level_for report ~actor:"Administrator" ~store:"EHR"
      ~field:H.diagnosis
  in
  Format.printf
    "Administrator read of EHR after Medical Service use: %a   (paper: Medium)@."
    Core.Level.pp level;
  let a' = Core.Analysis.rerun_with_policy a H.fixed_policy in
  Format.printf "after revoking the Diagnosis read: max level %a   (paper: Low)@."
    Core.Level.pp
    (Core.Disclosure_risk.max_level (Option.get a'.disclosure))

(* ------------------------------------------------------------------ *)
(* Table I *)

let table1 () =
  section "[table1] Risk values for 2-anonymisation data records";
  let plan = A.Columnar.compile H.table1_released in
  let reports =
    List.map
      (fun fr -> A.Columnar.value_risk_assess plan ~fields_read:fr H.value_policy)
      [ [ "Height" ]; [ "Age" ]; [ "Age"; "Height" ] ]
  in
  let table =
    Mdp_prelude.Texttable.create
      ~header:
        [ "Age"; "Height (cm)"; "Weight (kg)"; "Height risk"; "Age risk";
          "Age Height risk" ]
  in
  List.iteri
    (fun i row ->
      Mdp_prelude.Texttable.add_row table
        (List.map A.Value.to_string row
        @ List.map
            (fun (r : A.Value_risk.report) ->
              Frac.to_string (List.nth r.scores i).A.Value_risk.risk)
            reports))
    (A.Dataset.rows H.table1_released);
  Mdp_prelude.Texttable.add_row table
    ([ "Violations:"; ""; "" ]
    @ List.map
        (fun (r : A.Value_risk.report) -> string_of_int r.violations)
        reports);
  Format.printf "%a@." Mdp_prelude.Texttable.pp table;
  Printf.printf "(paper violations row: 0 / 2 / 4)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 4 *)

let fig4 () =
  section "[fig4] Pseudonymisation risk analysis output";
  let options = { Core.Generate.default_options with granular_reads = true } in
  let a =
    Core.Analysis.run ~options ~bindings:[ H.study_binding ] H.study_diagram
      H.study_policy
  in
  Printf.printf "study LTS: %s\n"
    (Core.Lts_render.summary_with_risks a.lts a.pseudonym);
  Printf.printf "risk-transitions (dotted in the figure):\n";
  List.iter
    (fun (rt : Core.Pseudonym_risk.risk_transition) ->
      Format.printf "  %a@." Core.Pseudonym_risk.pp_risk_transition rt)
    a.pseudonym;
  (match Core.Pseudonym_risk.check ~max_violation_ratio:0.5 a.pseudonym with
  | Ok () -> Printf.printf "50%% violation gate: accepted\n"
  | Error msg -> Printf.printf "50%% violation gate: REJECTED (%s)\n" msg);
  Printf.printf "(paper: violation scores 0, 2 and 4; >50%% is rejected)\n"

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_generation () =
  section "[ablation] Generation options on the healthcare model";
  let u = Core.Universe.make H.diagram H.policy in
  let cases =
    [
      ("flows only, strict", Core.Generate.flow_only);
      ( "flows only, data-driven",
        { Core.Generate.flow_only with ordering = Core.Generate.Data_driven } );
      ("with potential reads (default)", Core.Generate.default_options);
      ( "potential reads, granular",
        { Core.Generate.default_options with granular_reads = true } );
      ( "with potential deletes",
        { Core.Generate.default_options with potential_deletes = true } );
      ( "no enforcement",
        { Core.Generate.default_options with enforce_policy = false } );
    ]
  in
  let table =
    Mdp_prelude.Texttable.create
      ~header:[ "options"; "states"; "transitions"; "depth"; "interleavings" ]
  in
  let opt_int = function Some v -> string_of_int v | None -> "-" in
  List.iter
    (fun (name, options) ->
      let lts = Core.Generate.run ~options u in
      Mdp_prelude.Texttable.add_row table
        [
          name;
          string_of_int (Core.Plts.num_states lts);
          string_of_int (Core.Plts.num_transitions lts);
          opt_int (Core.Plts.longest_path lts);
          opt_int (Core.Plts.count_maximal_paths lts);
        ])
    cases;
  Format.printf "%a@." Mdp_prelude.Texttable.pp table

let ablation_anonymisers () =
  section "[ablation] Anonymiser quality on a synthetic 500-record table";
  let ds = Synthetic.dataset ~seed:11 ~rows:500 ~quasi:2 in
  let scheme = Synthetic.scheme_for ~quasi:2 in
  let policy = { A.Value_risk.sensitive = "S"; closeness = 5.0; confidence = 0.9 } in
  let mondrian ds =
    Result.map A.Columnar.source
      (A.Columnar.mondrian_release ~k:5 (A.Columnar.compile ds))
  in
  let describe name release =
    let worst =
      List.fold_left
        (fun acc (r : A.Value_risk.report) -> max acc r.violations)
        0
        (A.Columnar.value_risk_sweep (A.Columnar.compile release) policy)
    in
    Printf.sprintf "%s: min class %d, discernibility %d, avg |class| %.1f, mean drift %.2f, worst violations %d"
      name
      (Rel.Kanonymity.min_class_size release)
      (Rel.Utility.discernibility release)
      (Rel.Utility.avg_class_size release)
      (Option.value (Rel.Utility.mean_drift ~original:ds ~release "Q0") ~default:nan)
      worst
  in
  (match Rel.Kanonymity.datafly ~k:5 ~max_suppression:0.05 ds scheme with
  | Ok (release, levels, suppressed) ->
    Printf.printf "%s (levels %s, %d suppressed)\n"
      (describe "datafly  k=5" release)
      (String.concat ","
         (List.map (fun (a, l) -> Printf.sprintf "%s=%d" a l) levels))
      suppressed
  | Error e -> Printf.printf "datafly failed: %s\n" e);
  (match Rel.Kanonymity.optimal ~k:5 ds scheme with
  | Some (release, levels) ->
    Printf.printf "%s (levels %s)\n"
      (describe "optimal  k=5" release)
      (String.concat ","
         (List.map (fun (a, l) -> Printf.sprintf "%s=%d" a l) levels))
  | None -> Printf.printf "optimal: no lattice point\n");
  (match mondrian ds with
  | Ok release -> Printf.printf "%s\n" (describe "mondrian k=5" release)
  | Error e -> Printf.printf "mondrian failed: %s\n" e);
  let post name release =
    Printf.printf "  %s: distinct-l %d, worst-class EMD %.3f (t-closeness)\n" name
      (Rel.Ldiv.distinct release ~sensitive:"S")
      (Option.value (Rel.Tcloseness.numeric_emd release ~sensitive:"S") ~default:nan)
  in
  Printf.printf "post-release checks (paper III-B: l-diversity removes the value risk):\n";
  (match Rel.Kanonymity.datafly ~k:5 ~max_suppression:0.05 ds scheme with
  | Ok (release, _, _) -> post "datafly " release
  | Error _ -> ());
  (match mondrian ds with
  | Ok release -> post "mondrian" release
  | Error _ -> ())

let synthetic_spec (na, nf, fps) =
  {
    Synthetic.seed = 42;
    nactors = na;
    nfields = nf;
    nstores = 2;
    nservices = 2;
    flows_per_service = fps;
  }

let scaling_generation () =
  section "[scaling] LTS generation on synthetic models";
  let table =
    Mdp_prelude.Texttable.create
      ~header:
        [ "actors"; "fields"; "flows/svc"; "states"; "transitions";
          "ms (median)" ]
  in
  List.iter
    (fun dims ->
      let na, nf, fps = dims in
      let diagram, policy = Synthetic.model (synthetic_spec dims) in
      let u = Core.Universe.make diagram policy in
      let lts = Core.Generate.run u in
      let seq = time_median ~runs:3 (fun () -> Core.Generate.run u) in
      Mdp_prelude.Texttable.add_row table
        [
          string_of_int na; string_of_int nf; string_of_int fps;
          string_of_int (Core.Plts.num_states lts);
          string_of_int (Core.Plts.num_transitions lts);
          Printf.sprintf "%.1f" (1000.0 *. seq);
        ])
    [ (2, 4, 3); (4, 6, 4); (6, 8, 5); (8, 10, 6); (10, 12, 7) ];
  Format.printf "%a@." Mdp_prelude.Texttable.pp table


(* ------------------------------------------------------------------ *)
(* Population-level analysis (paper III: one instance per user) *)

let population () =
  section "[population] Aggregate disclosure risk over simulated users";
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  let spec =
    {
      Core.Population.seed = 2026;
      size = 500;
      westin_mix = Core.Population.default_mix;
      agree_probability = 0.6;
    }
  in
  let profiles = Core.Population.simulate spec H.diagram in
  Format.printf "%a@." Core.Population.pp_aggregate
    (Core.Population.analyse_compiled u lts profiles)

(* ------------------------------------------------------------------ *)
(* Requirements audit *)

let requirements () =
  section "[requirements] Compliance queries on the generated LTS";
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  let annotate =
    Core.Risk_plan.annotate (Core.Risk_plan.compile u lts) H.profile_case_a
  in
  List.iter
    (fun req ->
      Format.printf "  %s %a@."
        (if Core.Requirement.holds ~annotate u lts req then "ok      "
         else "VIOLATED")
        Core.Requirement.pp req)
    [
      Core.Requirement.Never_identifies
        { actor = "Receptionist"; field = H.diagnosis };
      Core.Requirement.Never_identifies
        { actor = "Administrator"; field = H.diagnosis };
      Core.Requirement.Never_could_identify
        { actor = "Researcher"; field = H.diagnosis };
      Core.Requirement.Max_disclosure_risk Core.Level.Low;
    ]


(* Mondrian and value risk are timed on Columnar, the engine mdpriv anon
   runs: a release from a fresh compile, and one read set's assessment
   on a fresh compile of that release (a plan caches its dictionaries,
   so a reused one would time the cache). *)
let scaling_anonymisation () =
  section "[scaling] Anonymisation and value risk in record count";
  let table =
    Mdp_prelude.Texttable.create
      ~header:
        [ "records"; "datafly ms"; "mondrian ms"; "value-risk ms"; "emd ms" ]
  in
  let time f = Printf.sprintf "%.1f" (1000.0 *. time_median ~runs:3 f) in
  List.iter
    (fun rows ->
      let ds = Synthetic.dataset ~seed:rows ~rows ~quasi:2 in
      let scheme = Synthetic.scheme_for ~quasi:2 in
      let policy =
        { A.Value_risk.sensitive = "S"; closeness = 5.0; confidence = 0.9 }
      in
      let mondrian () = A.Columnar.mondrian_release ~k:5 (A.Columnar.compile ds) in
      let release =
        match mondrian () with Ok r -> A.Columnar.source r | Error _ -> ds
      in
      Mdp_prelude.Texttable.add_row table
        [
          string_of_int rows;
          time (fun () ->
              ignore (Rel.Kanonymity.datafly ~k:5 ~max_suppression:0.05 ds scheme));
          time mondrian;
          time (fun () ->
              A.Columnar.value_risk_assess (A.Columnar.compile release)
                ~fields_read:[ "Q0" ] policy);
          time (fun () -> Rel.Tcloseness.numeric_emd release ~sensitive:"S");
        ])
    [ 100; 500; 2000; 8000 ];
  Format.printf "%a@." Mdp_prelude.Texttable.pp table

let () =
  fig1 ();
  fig2 ();
  fig3 ();
  case_a ();
  table1 ();
  fig4 ();
  ablation_generation ();
  ablation_anonymisers ();
  population ();
  requirements ();
  scaling_generation ();
  scaling_anonymisation ();
  Printf.printf "\ndone.\n"
