(* The paper's §IV-A case study end to end: the doctors'-surgery model
   (Fig. 1), a user who agreed to the Medical Service but not the Medical
   Research Service and is highly sensitive about Diagnosis, the Medium
   risk finding against the Administrator, and the policy change that
   reduces it to Low.

     dune exec examples/healthcare_disclosure.exe *)

open Mdp_scenario
module Core = Mdp_core

let section title = Format.printf "@.== %s ==@." title

let () =
  section "Fig. 1: the data-flow model";
  Format.printf "%a@." Mdp_dataflow.Diagram.pp Healthcare.diagram;

  section "Generated LTS (paper Fig. 3 covers the Medical Service alone)";
  let u = Core.Universe.make Healthcare.diagram Healthcare.policy in
  let fig3 =
    Core.Generate.run
      ~options:
        {
          Core.Generate.flow_only with
          services = Some [ Healthcare.medical_service ];
        }
      u
  in
  Format.printf "Medical Service only, flows only: %s@."
    (Core.Lts_render.summary u fig3);

  section "Risk analysis for the case-study user";
  Format.printf "profile: %a@." Core.User_profile.pp Healthcare.profile_case_a;
  let analysis =
    Core.Analysis.run ~profile:Healthcare.profile_case_a Healthcare.diagram
      Healthcare.policy
  in
  let report = Option.get analysis.disclosure in
  Format.printf "non-allowed actors: %s@."
    (String.concat ", " report.non_allowed);
  let level =
    Core.Disclosure_risk.level_for report ~actor:"Administrator" ~store:"EHR"
      ~field:Healthcare.diagnosis
  in
  Format.printf
    "Administrator read of EHR Diagnosis after Medical Service use: %a@."
    Core.Level.pp level;
  (match Core.Disclosure_risk.findings_for report ~actor:"Administrator" with
  | f :: _ ->
    Format.printf "witness:@.";
    List.iter (fun a -> Format.printf "  %a@." Core.Action.pp a)
      (Core.Disclosure_risk.witness f);
    Format.printf "  %a   <- the risky event@." Core.Action.pp f.action
  | [] -> ());

  section "Apply the policy fix and re-analyse";
  let removed, added =
    Mdp_policy.Policy.diff ~before:Healthcare.policy
      ~after:Healthcare.fixed_policy Healthcare.diagram
  in
  List.iter
    (fun (g : Mdp_policy.Policy.grant_tuple) ->
      Format.printf "revoked: %s %a %s.%s@." g.actor Mdp_policy.Permission.pp
        g.perm g.store
        (Mdp_dataflow.Field.name g.field))
    removed;
  assert (added = []);
  let analysis' =
    Core.Analysis.rerun_with_policy analysis Healthcare.fixed_policy
  in
  let report' = Option.get analysis'.disclosure in
  Format.printf "max risk level after fix: %a@."
    Core.Level.pp
    (Core.Disclosure_risk.max_level report');
  (match analysis'.consistency with
  | [] -> ()
  | gaps ->
    Format.printf
      "note: the fix leaves %d flow(s) the policy no longer permits in full:@."
      (List.length gaps);
    List.iter (fun g -> Format.printf "  %a@." Core.Consistency.pp_gap g) gaps)
