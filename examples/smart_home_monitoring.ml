(* Runtime monitoring (paper §I: the model also monitors the running
   service): simulate a smart-home subject's traffic, replay it through
   the policy-enforcement point and the LTS monitor, and show the alerts
   raised by the Marketing team's opportunistic telemetry reads —
   before and after the policy fix.

     dune exec examples/smart_home_monitoring.exe *)

open Mdp_scenario
module Core = Mdp_core
module R = Mdp_runtime

let section title = Format.printf "@.== %s ==@." title

let replay analysis ~seed =
  let monitor =
    R.Monitor.create ~annotate:(Core.Analysis.annotate analysis)
      analysis.Core.Analysis.universe analysis.Core.Analysis.lts
  in
  let trace =
    R.Sim.run_exn analysis.Core.Analysis.universe
      {
        seed;
        services = [ Smart_home.energy_service; Smart_home.analytics_service ];
        snoopers =
          [ { actor = "Marketing"; store = "Telemetry"; probability = 0.5 } ];
      }
  in
  List.iter
    (fun event ->
      Format.printf "%a@." R.Event.pp event;
      List.iter
        (fun alert -> Format.printf "  !! %a@." R.Monitor.pp_alert alert)
        (R.Monitor.observe monitor event))
    trace

let () =
  section "Initial policy: Marketing may read raw telemetry";
  let analysis =
    Core.Analysis.run ~profile:Smart_home.profile Smart_home.diagram
      Smart_home.policy
  in
  let report = Option.get analysis.disclosure in
  Format.printf "design-time findings: %d (max level %a)@."
    (List.length report.findings)
    Core.Level.pp
    (Core.Disclosure_risk.max_level report);
  section "Simulated trace with monitor alerts";
  replay analysis ~seed:7;

  section "After revoking Marketing's occupancy/consumption reads";
  let analysis' =
    Core.Analysis.rerun_with_policy analysis Smart_home.fixed_policy
  in
  let report' = Option.get analysis'.disclosure in
  Format.printf "design-time findings: %d (max level %a)@."
    (List.length report'.findings)
    Core.Level.pp
    (Core.Disclosure_risk.max_level report');
  section "Same seed, fixed policy";
  replay analysis' ~seed:7
