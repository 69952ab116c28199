(* Distributed deployment analysis: place the healthcare service's actors
   and datastores across a UK surgery, an EU datacenter and a US research
   cloud; list every network transfer of personal data the model can
   perform, flag the cross-region ones the subject never consented to,
   and print the data-subject transparency report after a monitored run.

     dune exec examples/distributed_deployment.exe *)

open Mdp_scenario
module Core = Mdp_core
module R = Mdp_runtime

let section title = Format.printf "@.== %s ==@." title

let () =
  let analysis =
    Core.Analysis.run ~profile:Healthcare.profile_case_a Healthcare.diagram
      Healthcare.policy
  in
  let u = analysis.universe and lts = analysis.lts in
  let annotate = Core.Analysis.annotate analysis in
  let deployment =
    match
      R.Deployment.create
        ~nodes:
          [
            { R.Deployment.id = "surgery"; region = "UK" };
            { R.Deployment.id = "dc-eu"; region = "EU" };
            { R.Deployment.id = "research-cloud"; region = "US" };
          ]
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
    with
    | Ok d -> d
    | Error msgs -> failwith (String.concat "\n" msgs)
  in

  section "Every network transfer the model can perform";
  let print tr =
    Format.printf "  %a@." R.Deployment.pp_transfer
      { tr with R.Deployment.action = annotate tr.R.Deployment.action }
  in
  List.iter print (R.Deployment.transfers deployment lts);

  section "Cross-region transfers of sensitive data without consent";
  (match R.Deployment.risky_transfers deployment lts Healthcare.profile_case_a with
  | [] -> Format.printf "none@."
  | risky -> List.iter print risky);

  section "Transparency report after a monitored medical-service run";
  let monitor = R.Monitor.create ~annotate u lts in
  let trace =
    R.Sim.run_exn u { seed = 11; services = [ Healthcare.medical_service ]; snoopers = [] }
  in
  ignore (R.Monitor.run_trace monitor trace);
  Format.printf "@[<v>%a@]@."
    Core.Transparency.pp
    (Core.Transparency.at_state u lts (R.Monitor.current_state monitor));

  section "Worst case over the whole model (what COULD happen)";
  let worst = Core.Transparency.worst_case u lts in
  Format.printf "%d (actor, field) exposures; the researcher's slice:@."
    (List.length worst);
  Format.printf "@[<v>%a@]@."
    Core.Transparency.pp
    (Core.Transparency.for_actor worst "Researcher")
