(* Differential soundness of the what-if classifier: for every
   single-tuple ACL edit of a model (a Read, Write or Delete grant of
   a tuple the policy lacks, a revocation of one it holds) and every
   whole-store revocation, wherever [Edit.classify] keeps the LTS
   ([inv_lts] false), a cold exploration of the edited model must print
   the same [Lts_render.to_dot] as the base model.

   Without arguments this runs the alcotest suite: generated
   [synthetic:] models and the shipped models, under the default
   options, flow-only, granular reads and potential deletes. A shipped
   model is skipped under an option set whose base LTS exceeds 5,000
   states: each kept edit explores the edited model and renders a DOT
   of the whole LTS (on [models/rides.mdp] with granular reads, 9,794
   states, about 35 ms and 40 ms). The [--bench] mode has no such cap:
   it checks each named model (a [synthetic:] spec or a model file)
   under the default options, or every option set with
   [--all-options], with a 2,000,000-state guard, and exits 1 on any
   unsound verdict:

     dune exec test/test_edit_soundness.exe -- --bench synthetic:9-12-7@42
     dune exec test/test_edit_soundness.exe -- --bench --all-options models/*.mdp *)

module Core = Mdp_core
module Synth = Mdp_scenario.Synthetic
open Mdp_dataflow
open Mdp_policy

let option_sets =
  [
    ("default", Core.Generate.default_options);
    ("flow-only", Core.Generate.flow_only);
    ( "granular",
      { Core.Generate.default_options with Core.Generate.granular_reads = true } );
    ( "deletes",
      { Core.Generate.default_options with Core.Generate.potential_deletes = true } );
  ]

let perms = [ Permission.Read; Permission.Write; Permission.Delete ]

(* Every single-tuple grant/revoke, then every whole-store revoke. *)
let edits diagram policy =
  let tuples =
    List.concat_map
      (fun (a : Actor.t) ->
        List.concat_map
          (fun (s : Datastore.t) ->
            List.concat_map
              (fun f ->
                List.map
                  (fun p ->
                    let subject = Acl.Actor_subject a.id in
                    if Policy.allows policy ~diagram ~actor:a.id p ~store:s.id f
                    then
                      Core.Edit.Revoke
                        { subject; store = s.id; fields = Some [ f ]; perms = [ p ] }
                    else
                      Core.Edit.Grant
                        (Acl.allow subject ~store:s.id ~fields:[ f ] [ p ]))
                  perms)
              (Datastore.fields s))
          diagram.Diagram.datastores)
      diagram.Diagram.actors
  in
  let stores =
    List.concat_map
      (fun (a : Actor.t) ->
        List.concat_map
          (fun (s : Datastore.t) ->
            List.map
              (fun p ->
                Core.Edit.Revoke
                  {
                    subject = Acl.Actor_subject a.id;
                    store = s.id;
                    fields = None;
                    perms = [ p ];
                  })
              perms)
          diagram.Diagram.datastores)
      diagram.Diagram.actors
  in
  tuples @ stores

let dot_of options u =
  match Core.Generate.run ~options u with
  | lts ->
    let dot = Core.Lts_render.to_dot lts in
    Core.Plts.drop_spill lts;
    Some dot
  | exception Mdp_lts.Lts.Too_many_states _ -> None

type tally = { edits : int; kept : int; unsound : string list }

(* Every edit of the model under [options]: how many there were, how
   many kept the LTS, and the specs of those whose cold exploration
   disagrees. *)
let check_model options diagram policy =
  let universe = Core.Universe.make diagram policy in
  let base_dot = dot_of options universe in
  let before =
    { Core.Edit.diagram; policy; profile = None; bindings = [] }
  in
  List.fold_left
    (fun t edit ->
      match Core.Edit.apply before edit with
      | Error e ->
        { t with unsound = (Core.Edit.to_string edit ^ ": " ^ e) :: t.unsound }
      | Ok after ->
        let inv = Core.Edit.classify ~options ~universe ~before ~after in
        let t = { t with edits = t.edits + 1 } in
        if inv.Core.Edit.inv_lts then t
        else
          let dot =
            dot_of options
              (Core.Universe.make after.Core.Edit.diagram after.Core.Edit.policy)
          in
          {
            t with
            kept = t.kept + 1;
            unsound =
              (if dot = base_dot && dot <> None then t.unsound
               else Core.Edit.to_string edit :: t.unsound);
          })
    { edits = 0; kept = 0; unsound = [] }
    (edits diagram policy)

let load name =
  match Synth.spec_of_string name with
  | Some (Ok spec) -> Ok (Synth.model spec)
  | Some (Error e) -> Error e
  | None -> (
    match Mdp_dsl.Parser.parse (In_channel.with_open_bin name In_channel.input_all) with
    | Ok m -> Ok (m.Mdp_dsl.Parser.diagram, m.policy)
    | Error e -> Error (name ^ ": " ^ e)
    | exception Sys_error e -> Error e)

let fail_unsound ctx t =
  if t.unsound <> [] then
    Alcotest.failf "%s: %d of %d LTS-keeping verdicts unsound: %s" ctx
      (List.length t.unsound) t.kept
      (String.concat ", " (List.rev t.unsound))

(* ----- the suite ----- *)

let shipped_models () =
  (* the test runs in _build/default/test under [dune test] *)
  let dir = if Sys.file_exists "../models" then "../models" else "models" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mdp")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)
  |> List.cons "unwritten_read.mdp"

let test_shipped () =
  List.iter
    (fun path ->
      match load path with
      | Error e -> Alcotest.fail e
      | Ok (diagram, policy) ->
        List.iter
          (fun (oname, options) ->
            let small =
              match
                Core.Generate.run
                  ~options:{ options with Core.Generate.max_states = 5_000 }
                  (Core.Universe.make diagram policy)
              with
              | _ -> true
              | exception Mdp_lts.Lts.Too_many_states _ -> false
            in
            if small then
              fail_unsound (path ^ " " ^ oname)
                (check_model options diagram policy))
          option_sets)
    (shipped_models ())

let prop_generated =
  let gen =
    QCheck.Gen.(
      map
        (fun ((seed, nactors, nfields), (nstores, flows, opts)) ->
          ( { Synth.seed; nactors; nfields; nstores; nservices = 2;
              flows_per_service = flows },
            opts ))
        (pair
           (triple (int_bound 1000) (int_range 2 4) (int_range 3 7))
           (triple (int_range 1 3) (int_range 2 4)
              (oneofl (List.map fst option_sets)))))
  in
  let print ((spec : Synth.spec), opts) =
    Printf.sprintf "synthetic:%d-%d-%d@%d (%d stores) %s" spec.nactors
      spec.nfields spec.flows_per_service spec.seed spec.nstores opts
  in
  QCheck.Test.make ~count:30
    ~name:"kept LTS equals a cold exploration (generated models)"
    (QCheck.make ~print gen)
    (fun (spec, opts) ->
      let diagram, policy = Synth.model spec in
      let t = check_model (List.assoc opts option_sets) diagram policy in
      if t.unsound <> [] then
        QCheck.Test.fail_reportf "unsound: %s"
          (String.concat ", " (List.rev t.unsound));
      true)

(* ----- bench-size runs ----- *)

let run_bench sets names =
  let bad = ref 0 in
  List.iter
    (fun name ->
      match load name with
      | Error e ->
        prerr_endline e;
        incr bad
      | Ok (diagram, policy) ->
        List.iter
          (fun (oname, options) ->
            let options = { options with Core.Generate.max_states = 2_000_000 } in
            let t = check_model options diagram policy in
            Printf.printf "%s %s: %d edits, %d keep the LTS, %d unsound\n%!"
              name oname t.edits t.kept (List.length t.unsound);
            List.iter (Printf.printf "  unsound: %s\n") (List.rev t.unsound);
            if t.unsound <> [] then incr bad)
          sets)
    names;
  exit (if !bad = 0 then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--bench" :: "--all-options" :: names -> run_bench option_sets names
  | "--bench" :: names -> run_bench [ List.hd option_sets ] names
  | _ ->
    Alcotest.run "edit-soundness"
      [
        ( "classify",
          [
            Alcotest.test_case "shipped models, every option set" `Quick
              test_shipped;
            QCheck_alcotest.to_alcotest prop_generated;
          ] );
      ]
