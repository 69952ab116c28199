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
  let reports =
    List.map
      (fun fr -> A.Value_risk.assess H.table1_released ~fields_read:fr H.value_policy)
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
  Printf.printf "study LTS: %s\n" (Core.Lts_render.summary a.universe a.lts);
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
  let describe name release =
    let worst =
      List.fold_left
        (fun acc (r : A.Value_risk.report) -> max acc r.violations)
        0
        (A.Value_risk.sweep release policy)
    in
    Printf.sprintf "%s: min class %d, discernibility %d, avg |class| %.1f, mean drift %.2f, worst violations %d"
      name
      (A.Kanon.min_class_size release)
      (A.Utility.discernibility release)
      (A.Utility.avg_class_size release)
      (Option.value (A.Utility.mean_drift ~original:ds ~release "Q0") ~default:nan)
      worst
  in
  (match A.Kanon.datafly ~k:5 ~max_suppression:0.05 ds scheme with
  | Ok (release, levels, suppressed) ->
    Printf.printf "%s (levels %s, %d suppressed)\n"
      (describe "datafly  k=5" release)
      (String.concat ","
         (List.map (fun (a, l) -> Printf.sprintf "%s=%d" a l) levels))
      suppressed
  | Error e -> Printf.printf "datafly failed: %s\n" e);
  (match A.Kanon.optimal ~k:5 ds scheme with
  | Some (release, levels) ->
    Printf.printf "%s (levels %s)\n"
      (describe "optimal  k=5" release)
      (String.concat ","
         (List.map (fun (a, l) -> Printf.sprintf "%s=%d" a l) levels))
  | None -> Printf.printf "optimal: no lattice point\n");
  (match A.Mondrian.anonymise ~k:5 ds with
  | Ok release -> Printf.printf "%s\n" (describe "mondrian k=5" release)
  | Error e -> Printf.printf "mondrian failed: %s\n" e);
  let post name release =
    Printf.printf "  %s: distinct-l %d, worst-class EMD %.3f (t-closeness)\n" name
      (A.Ldiv.distinct release ~sensitive:"S")
      (Option.value (A.Tcloseness.numeric_emd release ~sensitive:"S") ~default:nan)
  in
  Printf.printf "post-release checks (paper III-B: l-diversity removes the value risk):\n";
  (match A.Kanon.datafly ~k:5 ~max_suppression:0.05 ds scheme with
  | Ok (release, _, _) -> post "datafly " release
  | Error _ -> ());
  (match A.Mondrian.anonymise ~k:5 ds with
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

let scaling_generation ~jobs () =
  section "[scaling] LTS generation on synthetic models";
  let table =
    Mdp_prelude.Texttable.create
      ~header:
        [ "actors"; "fields"; "flows/svc"; "states"; "transitions";
          "ms (median)"; Printf.sprintf "ms (%d jobs)" jobs ]
  in
  List.iter
    (fun dims ->
      let na, nf, fps = dims in
      let diagram, policy = Synthetic.model (synthetic_spec dims) in
      let u = Core.Universe.make diagram policy in
      let lts = Core.Generate.run u in
      let seq = time_median ~runs:3 (fun () -> Core.Generate.run u) in
      let par = time_median ~runs:3 (fun () -> Core.Generate.run ~jobs u) in
      Mdp_prelude.Texttable.add_row table
        [
          string_of_int na; string_of_int nf; string_of_int fps;
          string_of_int (Core.Plts.num_states lts);
          string_of_int (Core.Plts.num_transitions lts);
          Printf.sprintf "%.1f" (1000.0 *. seq);
          Printf.sprintf "%.1f" (1000.0 *. par);
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
    (Core.Population.analyse u lts profiles)

(* ------------------------------------------------------------------ *)
(* Requirements audit *)

let requirements () =
  section "[requirements] Compliance queries on the generated LTS";
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  ignore (Core.Disclosure_risk.analyse u lts H.profile_case_a);
  List.iter
    (fun req ->
      Format.printf "  %s %a@."
        (if Core.Requirement.holds u lts req then "ok      " else "VIOLATED")
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
      let release =
        match A.Mondrian.anonymise ~k:5 ds with Ok r -> r | Error _ -> ds
      in
      Mdp_prelude.Texttable.add_row table
        [
          string_of_int rows;
          time (fun () ->
              ignore (A.Kanon.datafly ~k:5 ~max_suppression:0.05 ds scheme));
          time (fun () -> ignore (A.Mondrian.anonymise ~k:5 ds));
          time (fun () ->
              ignore (A.Value_risk.assess release ~fields_read:[ "Q0" ] policy));
          time (fun () -> ignore (A.Tcloseness.numeric_emd release ~sensitive:"S"));
        ])
    [ 100; 500; 2000; 8000 ];
  Format.printf "%a@." Mdp_prelude.Texttable.pp table

(* ------------------------------------------------------------------ *)
(* Chaos: monitoring throughput and recovery under fault injection *)

let chaos_resilience () =
  section "[chaos] Fleet monitoring under fault injection";
  let module R = Mdp_runtime in
  let analysis = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let u = analysis.Core.Analysis.universe
  and lts = analysis.Core.Analysis.lts in
  let subjects = 40 and repeats = 50 and resync_depth = 8 in
  let traces =
    List.init subjects (fun i ->
        ( Printf.sprintf "s%02d" i,
          R.Sim.run_exn u
            {
              seed = 100 + (31 * i);
              services = [ H.medical_service; H.research_service ];
              snoopers = [];
            } ))
  in
  Printf.printf "  %d subjects, %d clean events, resync depth %d\n" subjects
    (Mdp_prelude.Listx.sum_by (fun (_, t) -> List.length t) traces)
    resync_depth;
  Printf.printf "  %-6s %9s %11s %8s %6s %6s %6s %6s\n" "rate" "events"
    "events/s" "resyncs" "late" "dup" "dead" "lost";
  List.iter
    (fun rate ->
      let profile = R.Faults.uniform rate in
      let stream =
        R.Trace.interleave
          (List.mapi
             (fun i (s, tr) ->
               (s, (R.Faults.inject ~seed:(7 + (131 * i)) profile tr).delivered))
             traces)
      in
      let feed () =
        let fleet = R.Fleet.create ~resync_depth u lts in
        List.iter
          (fun (s, e) -> ignore (R.Fleet.observe fleet ~subject:s e))
          stream;
        fleet
      in
      let t0 = Mdp_obs.Clock.now_ns () in
      for _ = 2 to repeats do
        ignore (feed ())
      done;
      let fleet = feed () in
      let dt = Mdp_obs.Clock.elapsed_s t0 /. float_of_int repeats in
      let resyncs, late, dup, dead =
        List.fold_left
          (fun (r, l, du, de) s ->
            match R.Fleet.monitor_stats fleet ~subject:s with
            | None -> (r, l, du, de)
            | Some st ->
              ( r + st.R.Monitor.resyncs,
                l + st.late,
                du + st.duplicates,
                de + st.dead ))
          (0, 0, 0, 0) (R.Fleet.subjects fleet)
      in
      let lost =
        Mdp_prelude.Listx.count
          (fun (_, h) -> h = R.Fleet.Lost)
          (R.Fleet.health_summary fleet)
      in
      Printf.printf "  %-6s %9d %11.0f %8d %6d %6d %6d %6d\n"
        (Printf.sprintf "%.0f%%" (100.0 *. rate))
        (List.length stream)
        (float_of_int (List.length stream) /. dt)
        resyncs late dup dead lost)
    [ 0.0; 0.01; 0.05; 0.20 ]

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
  scaling_generation ~jobs:4 ();
  scaling_anonymisation ();
  chaos_resilience ();
  Printf.printf "\ndone.\n"
