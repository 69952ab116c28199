(* Quickstart: model a tiny photo-sharing service with the builder API,
   generate its privacy LTS, and run disclosure-risk analysis for one user.

     dune exec examples/quickstart.exe *)

open Mdp_dataflow
module Core = Mdp_core
module Acl = Mdp_policy.Acl
module Permission = Mdp_policy.Permission

let () =
  (* 1. Describe the system: actors, datastores with schemas, and
        purpose-annotated data flows (paper §II-A). *)
  let b = Builder.create () in
  Builder.actor b "Moderator";
  Builder.actor b "AdsTeam";
  Builder.plain_store b "Photos"
    ~schemas:[ ("PhotoRecord", [ "Username"; "Photo"; "Location" ]) ];
  Builder.flow b ~service:"Sharing" ~src:"User" ~dst:"Moderator"
    [ "Username"; "Photo"; "Location" ];
  Builder.flow b ~service:"Sharing" ~src:"Moderator" ~dst:"Photos"
    [ "Username"; "Photo"; "Location" ];
  let diagram = Builder.build_exn b in

  (* 2. Attach the access-control policy. The AdsTeam read of Photos is
        nowhere in the Sharing service: a latent risk. *)
  let policy =
    Mdp_policy.Policy.make
      [
        Acl.allow (Acl.Actor_subject "Moderator") ~store:"Photos"
          [ Permission.Read; Permission.Write ];
        Acl.allow (Acl.Actor_subject "AdsTeam") ~store:"Photos"
          [ Permission.Read ];
      ]
  in

  (* 3. Profile the user: agreed to Sharing; Location is highly
        sensitive (paper §III-A). *)
  let profile =
    Core.User_profile.make
      ~sensitivities:[ (Field.make "Location", Core.User_profile.of_category `High) ]
      ~agreed_services:[ "Sharing" ] ()
  in

  (* 4. Generate the LTS and analyse. *)
  let analysis = Core.Analysis.run ~profile diagram policy in
  Format.printf "%a@.@." Core.Analysis.pp_summary analysis;

  (* 5. Inspect the worst finding and its witness path. *)
  match analysis.disclosure with
  | Some { findings = worst :: _; _ } ->
    Format.printf "Worst finding: %a@." Core.Disclosure_risk.pp_finding worst;
    Format.printf "Witness path from the initial state:@.";
    List.iter
      (fun action -> Format.printf "  %a@." Core.Action.pp action)
      (Core.Disclosure_risk.witness worst)
  | Some { findings = []; _ } | None ->
    Format.printf "No disclosure risks found.@."
