(* The paper's §IV-B case study: 2-anonymisation of the six-record health
   table, the Table I value-risk fractions, and the Fig. 4 risk-transitions
   out of the generated LTS, including the design-time gate that rejects
   the pseudonymisation when violations exceed 50%.

     dune exec examples/pseudonymisation_risk.exe *)

open Mdp_scenario
module Core = Mdp_core
module A = Mdp_anon
module Rel = Mdp_release
module Frac = Mdp_prelude.Frac

let section title = Format.printf "@.== %s ==@." title

let () =
  section "Raw study records";
  Format.printf "%a@." A.Dataset.pp Healthcare.table1_raw;

  section "2-anonymised release (identifiers dropped, Age/Height generalised)";
  Format.printf "%a@." A.Dataset.pp Healthcare.table1_released;
  assert (Rel.Kanonymity.is_k_anonymous ~k:2 Healthcare.table1_released);

  section "Table I: value risks per fields-read set";
  let table =
    Mdp_prelude.Texttable.create
      ~header:
        [ "Age"; "Height"; "Weight"; "Height risk"; "Age risk"; "Age Height risk" ]
  in
  let plan = A.Columnar.compile Healthcare.table1_released in
  let reports =
    List.map
      (fun fr ->
        A.Columnar.value_risk_assess plan ~fields_read:fr
          Healthcare.value_policy)
      [ [ "Height" ]; [ "Age" ]; [ "Age"; "Height" ] ]
  in
  List.iteri
    (fun i row ->
      let cells = List.map A.Value.to_string row in
      let risks =
        List.map
          (fun (r : A.Value_risk.report) ->
            Frac.to_string (List.nth r.scores i).risk)
          reports
      in
      Mdp_prelude.Texttable.add_row table (cells @ risks))
    (A.Dataset.rows Healthcare.table1_released);
  Mdp_prelude.Texttable.add_row table
    ([ "Violations:"; ""; "" ]
    @ List.map
        (fun (r : A.Value_risk.report) -> string_of_int r.violations)
        reports);
  Format.printf "%a@." Mdp_prelude.Texttable.pp table;

  section "Fig. 4: risk-transitions on the study LTS";
  let options =
    { Core.Generate.default_options with granular_reads = true }
  in
  let analysis =
    Core.Analysis.run ~options
      ~bindings:[ Healthcare.study_binding ]
      Healthcare.study_diagram Healthcare.study_policy
  in
  Format.printf "%s@."
    (Core.Lts_render.summary_with_risks analysis.lts analysis.pseudonym);
  List.iter
    (fun rt -> Format.printf "  %a@." Core.Pseudonym_risk.pp_risk_transition rt)
    analysis.pseudonym;

  section "Design-time gate (violations must stay below 50%)";
  (match Core.Pseudonym_risk.check ~max_violation_ratio:0.5 analysis.pseudonym with
  | Ok () -> Format.printf "accepted@."
  | Error msg -> Format.printf "REJECTED: %s@." msg);

  section "What saves it: l-diversity of the release";
  Format.printf "distinct l-diversity of Weight: %d (l >= 2 would remove the risk)@."
    (Rel.Ldiv.distinct Healthcare.table1_released ~sensitive:"Weight")
