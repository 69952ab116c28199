(* Live risk re-assessment (paper §III-B "Using Risk Scores"): the model
   applied to a *running* system. We populate the study datastore with
   synthetic patient records, let the Administrator pseudonymise them into
   the anonymised store, extract the release actually sitting there and
   recompute value risk from it — then iterate the paper's remedy
   ("consider increasing their k value") until the release gate accepts.

     dune exec examples/live_reassessment.exe *)

open Mdp_scenario
module Core = Mdp_core
module R = Mdp_runtime
module A = Mdp_anon
module Rel = Mdp_release
module Field = Mdp_dataflow.Field
module Prng = Mdp_prelude.Prng

let section title = Format.printf "@.== %s ==@." title

let patients = 120

let populate sim =
  let rng = Prng.create ~seed:99 in
  for i = 1 to patients do
    let height = Prng.range rng 150 199 in
    (* Taller people weigh more: quasi fields genuinely predict weight,
       so the release carries real value risk. *)
    let weight =
      Float.round
        (Prng.gaussian rng ~mean:(0.9 *. float_of_int height -. 80.0) ~stddev:6.0)
    in
    let record =
      [
        (Healthcare.name, A.Value.Str (Printf.sprintf "patient-%03d" i));
        (Healthcare.age, A.Value.Int (Prng.range rng 18 90));
        (Healthcare.height, A.Value.Int height);
        (Healthcare.weight, A.Value.Float weight);
      ]
    in
    match
      R.Store_sim.write sim ~actor:"Clinician" ~store:"StudyRecords"
        ~subject:(Printf.sprintf "subject-%03d" i)
        record
    with
    | Ok () -> ()
    | Error e -> failwith e
  done

let release_of sim ~age_width ~height_width =
  let h widths = A.Hierarchy.numeric ~widths () in
  let generalise =
    [
      (Healthcare.age, A.Hierarchy.generalise (h [ age_width ]) ~level:1);
      (Healthcare.height, A.Hierarchy.generalise (h [ height_width ]) ~level:1);
    ]
  in
  (match
     R.Store_sim.pseudonymise sim ~actor:"Administrator"
       ~from_store:"StudyRecords" ~to_store:"AnonStudy" ~generalise
   with
  | Ok n -> assert (n = patients)
  | Error e -> failwith e);
  match
    R.Store_sim.dataset sim ~store:"AnonStudy"
      ~kinds:
        [
          (Field.anon_of Healthcare.age, A.Attribute.Quasi);
          (Field.anon_of Healthcare.height, A.Attribute.Quasi);
          (Field.anon_of Healthcare.weight, A.Attribute.Sensitive);
        ]
  with
  | Ok ds -> ds
  | Error e -> failwith e

let gate raw =
  {
    (Rel.Release_gate.default ~k:5) with
    l = Some 2;
    max_violation_ratio = Some 0.2;
    value_policy = Some Healthcare.value_policy;
    max_mean_drift = Some 1.0;
  }
  |> fun criteria release -> Rel.Release_gate.evaluate ~original:raw ~release criteria

let () =
  let u = Core.Universe.make Healthcare.study_diagram Healthcare.study_policy in
  let sim = R.Store_sim.create ~seed:5 u in
  populate sim;
  Format.printf "%d live records in StudyRecords@."
    (List.length (R.Store_sim.subjects sim ~store:"StudyRecords"));

  (* The raw data for utility comparison. *)
  let raw =
    match
      R.Store_sim.dataset sim ~store:"StudyRecords"
        ~kinds:
          [
            (Healthcare.name, A.Attribute.Identifier);
            (Healthcare.age, A.Attribute.Quasi);
            (Healthcare.height, A.Attribute.Quasi);
            (Healthcare.weight, A.Attribute.Sensitive);
          ]
    with
    | Ok ds -> A.Dataset.drop_identifiers ds
    | Error e -> failwith e
  in
  let check = gate raw in

  (* Iterate the paper's remedy: coarsen the generalisation until the
     gate accepts. *)
  let attempts =
    [ (5.0, 5.0); (10.0, 10.0); (20.0, 20.0); (40.0, 50.0) ]
  in
  let rec iterate = function
    | [] -> Format.printf "@.no acceptable pseudonymisation found@."
    | (age_width, height_width) :: rest ->
      section
        (Printf.sprintf "Age bands of %.0f years, height bands of %.0f cm"
           age_width height_width);
      let release = release_of sim ~age_width ~height_width in
      Format.printf "live release: %d records, min class %d, distinct-l %d@."
        (A.Dataset.nrows release)
        (Rel.Kanonymity.min_class_size release)
        (Rel.Ldiv.distinct release ~sensitive:"Weight");
      let worst =
        List.fold_left
          (fun acc (r : A.Value_risk.report) -> max acc r.violations)
          0
          (A.Columnar.value_risk_sweep (A.Columnar.compile release)
             Healthcare.value_policy)
      in
      Format.printf "worst-case value-risk violations: %d/%d@." worst patients;
      let verdict = check release in
      Format.printf "%a@." Rel.Release_gate.pp_verdict verdict;
      if not verdict.Rel.Release_gate.accepted then iterate rest
      else
        Format.printf
          "@.accepted: publish this release; re-run on every refresh of the \
           live data.@."
  in
  iterate attempts
