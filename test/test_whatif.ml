(* The incremental what-if engine against cold runs: after any edit
   sequence, [Analysis.run_incremental] must produce output
   byte-identical to a cold [Analysis.run] on the edited inputs — for
   reuse paths (vacuous, preserving, maintenance-repatch, profile
   re-evaluation) and full-fallback paths (flow edits) alike. Plus the
   sweep's delta evaluator against ground truth diffs, and the edit
   spec parser round-trip. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module Synth = Mdp_scenario.Synthetic
open Mdp_dataflow
open Mdp_policy

let check = Alcotest.check
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* Reports and summaries rendered to one string: the byte-identity
   vehicle (findings with state ids, witnesses, gaps, pseudonym
   transitions, LTS counts). *)
let render t =
  Core.Report.to_string t ^ "\n----\n"
  ^ Format.asprintf "%a" Core.Analysis.pp_summary t

let cold ?jobs (params : Core.Analysis.params) (inputs : Core.Edit.inputs) =
  match
    Core.Analysis.run_checked ~options:params.Core.Analysis.options
      ~matrix:params.matrix ~model:params.model
      ?profile:inputs.Core.Edit.profile ~bindings:inputs.Core.Edit.bindings
      ?jobs inputs.Core.Edit.diagram inputs.Core.Edit.policy
  with
  | Ok t -> t
  | Error f -> Alcotest.fail (Core.Analysis.failure_message f)

(* Apply [edits] one at a time, chaining incrementally, and assert
   byte-identity with a cold run after every step. *)
let check_chain name ~jobs base edits =
  let rec go prev step = function
    | [] -> ()
    | edit :: rest ->
      let incr = Core.Analysis.run_incremental ~jobs ~previous:prev [ edit ] in
      let c = cold ~jobs incr.Core.Analysis.params (Core.Analysis.inputs_of incr) in
      check string_
        (Printf.sprintf "%s step %d (jobs=%d) byte-identical" name step jobs)
        (render c) (render incr);
      go incr (step + 1) rest
  in
  go base 1 edits

let revoke ?fields actor perm store =
  Core.Edit.Revoke
    { subject = Acl.Actor_subject actor; store; fields; perms = [ perm ] }

(* ------------------------------------------------------------------ *)
(* Healthcare: the §IV-A loop and every reuse class. *)

(* Under the default matrix the maintenance-exposure term (0.02 on top
   of accidental 0.05 + rogue 0.01) never crosses the 0.1 likelihood
   threshold, so Delete revocations are level-invisible. A 0.07
   threshold puts the flip on a bucket boundary, making the repatch
   path observable in report bytes and sweep scores. *)
let flip_matrix = Core.Risk_matrix.make ~likelihood_thresholds:(0.07, 0.5) ()

let healthcare_base ?profile () =
  Core.Analysis.run ~matrix:flip_matrix ?profile H.diagram H.policy

let healthcare_edits =
  [
    (* Vacuous: Researcher holds nothing on EHR. *)
    revoke "Researcher" Permission.Write "EHR";
    (* Maintenance repatch: drop the §IV-A Delete grant. *)
    revoke "Administrator" Permission.Delete "EHR";
    (* Profile-only re-evaluation. *)
    Core.Edit.Set_sensitivity (H.treatment, 0.7);
    Core.Edit.Set_agreement { service = H.research_service; agreed = true };
    (* The §IV-A fix itself: Read on a writable field — full fallback. *)
    revoke ~fields:[ H.diagnosis ] "Administrator" Permission.Read "EHR";
    (* Diagram edit: full fallback. *)
    Core.Edit.Remove_flow { service = H.research_service; order = 1 };
  ]

let test_healthcare_chain () =
  List.iter
    (fun jobs ->
      check_chain "healthcare" ~jobs
        (healthcare_base ~profile:H.profile_case_a ())
        healthcare_edits)
    [ 1; 4 ]

let test_healthcare_no_profile_chain () =
  check_chain "healthcare-noprofile" ~jobs:1 (healthcare_base ())
    [
      revoke "Administrator" Permission.Delete "EHR";
      revoke ~fields:[ H.diagnosis ] "Administrator" Permission.Read "EHR";
    ]

let test_batched_edits () =
  (* Several edits in one run_incremental call. *)
  let base = healthcare_base ~profile:H.profile_case_a () in
  let edits =
    [
      revoke "Administrator" Permission.Delete "EHR";
      Core.Edit.Set_sensitivity (H.medical_issues, 0.9);
    ]
  in
  let incr = Core.Analysis.run_incremental ~previous:base edits in
  let c = cold incr.Core.Analysis.params (Core.Analysis.inputs_of incr) in
  check string_ "batched edits byte-identical" (render c) (render incr)

(* The §IV-A acceptance fact itself, through the incremental engine:
   revoking the Administrator's Delete lowers their EHR read risk. *)
let test_case_a_improvement () =
  let base = healthcare_base ~profile:H.profile_case_a () in
  let incr =
    Core.Analysis.run_incremental ~previous:base
      [ revoke "Administrator" Permission.Delete "EHR" ]
  in
  let before = Option.get base.Core.Analysis.disclosure in
  let after = Option.get incr.Core.Analysis.disclosure in
  let diff = Core.Risk_diff.diff ~before ~after in
  check bool_ "risk only improves" true (Core.Risk_diff.improved diff);
  check bool_ "something improved" true
    (diff.Core.Risk_diff.changed <> [] || diff.Core.Risk_diff.removed <> [])

(* ------------------------------------------------------------------ *)
(* Pseudonym bindings: reuse and invalidation around the §III-B pass. *)

let study_base ?bindings () =
  let options =
    { Core.Generate.default_options with granular_reads = true }
  in
  let profile =
    Core.User_profile.make
      ~sensitivities:[ (H.weight, 0.8) ]
      ~agreed_services:[ "DataCollection" ] ()
  in
  Core.Analysis.run ~options ~profile ?bindings H.study_diagram H.study_policy

let test_bindings_chain () =
  (* Adding bindings to a binding-free run reuses the LTS; profile
     edits on a binding-bearing run reuse the pass; policy edits under
     bindings fall back to a full run. *)
  check_chain "study" ~jobs:1
    (study_base ())
    [
      Core.Edit.Set_bindings [ H.study_binding ];
      Core.Edit.Set_sensitivity (H.weight, 0.3);
      revoke "Administrator" Permission.Delete "StudyRecords";
    ]

(* ------------------------------------------------------------------ *)
(* Synthetic models: deterministic chain + randomized sequences. *)

let synth_model name =
  match Synth.spec_of_string name with
  | Some (Ok spec) ->
    let diagram, policy = Synth.model spec in
    (spec, diagram, policy)
  | _ -> Alcotest.fail ("bad spec " ^ name)

let synth_base ?(jobs = 1) name =
  let spec, diagram, policy = synth_model name in
  let profile = Synth.profile spec diagram in
  match
    Core.Analysis.run_checked ~profile ~jobs diagram policy
  with
  | Ok t -> t
  | Error f -> Alcotest.fail (Core.Analysis.failure_message f)

let test_synthetic_chain () =
  List.iter
    (fun jobs ->
      let base = synth_base ~jobs "synthetic:4-6-3@1" in
      let inputs = Core.Analysis.inputs_of base in
      let grants =
        Policy.concrete_grants inputs.Core.Edit.policy
          inputs.Core.Edit.diagram
      in
      let of_perm p =
        List.filter (fun (g : Policy.grant_tuple) -> g.perm = p) grants
      in
      let candidate p =
        match of_perm p with
        | g :: _ -> [ revoke ~fields:[ g.field ] g.actor g.perm g.store ]
        | [] -> []
      in
      check_chain "synthetic:4-6-3@1" ~jobs base
        (candidate Permission.Delete
        @ candidate Permission.Read
        @ candidate Permission.Write
        @ [
            Core.Edit.Set_sensitivity (Field.make "Field2", 1.0);
            Core.Edit.Set_agreement { service = "Service1"; agreed = false };
          ]))
    [ 1; 4 ]

(* Randomized edit sequences, byte-identity after every step. *)
let edit_vocabulary (inputs : Core.Edit.inputs) =
  let diagram = inputs.Core.Edit.diagram in
  let grants = Policy.concrete_grants inputs.Core.Edit.policy diagram in
  let revokes =
    List.map
      (fun (g : Policy.grant_tuple) ->
        revoke ~fields:[ g.field ] g.actor g.perm g.store)
      grants
  in
  let actors = List.map (fun (a : Actor.t) -> a.id) diagram.Diagram.actors in
  let stores =
    List.map (fun (d : Datastore.t) -> d.id) diagram.Diagram.datastores
  in
  let fields = Diagram.all_fields diagram in
  let new_grants =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun s ->
            List.map
              (fun p -> Core.Edit.Grant (Acl.allow (Acl.Actor_subject a) ~store:s [ p ]))
              [ Permission.Read; Permission.Delete ])
          stores)
      actors
  in
  let sens =
    List.concat_map
      (fun f ->
        [
          Core.Edit.Set_sensitivity (f, 0.0);
          Core.Edit.Set_sensitivity (f, 0.45);
          Core.Edit.Set_sensitivity (f, 0.95);
        ])
      fields
  in
  let agreements =
    List.concat_map
      (fun (s : Service.t) ->
        [
          Core.Edit.Set_agreement { service = s.id; agreed = true };
          Core.Edit.Set_agreement { service = s.id; agreed = false };
        ])
      diagram.Diagram.services
  in
  let flow_removals =
    List.map
      (fun ((s : Service.t), (f : Flow.t)) ->
        Core.Edit.Remove_flow { service = s.id; order = f.order })
      (Diagram.all_flows diagram)
  in
  Array.of_list
    (revokes @ new_grants @ sens @ agreements @ flow_removals)

let test_random_sequences =
  QCheck.Test.make ~count:12 ~name:"random edit sequences stay byte-identical"
    QCheck.(
      pair (list_of_size Gen.(1 -- 3) (int_bound 10_000)) (int_bound 1))
    (fun (picks, jobs_pick) ->
      let jobs = if jobs_pick = 0 then 1 else 4 in
      let base = synth_base ~jobs "synthetic:3-5-2@5" in
      let rec go prev = function
        | [] -> true
        | pick :: rest ->
          let vocab = edit_vocabulary (Core.Analysis.inputs_of prev) in
          let edit = vocab.(pick mod Array.length vocab) in
          (match
             Core.Edit.apply (Core.Analysis.inputs_of prev) edit
           with
          | Error _ -> go prev rest (* inapplicable against current model *)
          | Ok _ ->
            let incr =
              Core.Analysis.run_incremental ~jobs ~previous:prev [ edit ]
            in
            let c =
              cold ~jobs incr.Core.Analysis.params
                (Core.Analysis.inputs_of incr)
            in
            if render c <> render incr then
              QCheck.Test.fail_reportf "divergence after %s (jobs=%d)"
                (Core.Edit.to_string edit) jobs
            else go incr rest)
      in
      go base picks)

(* ------------------------------------------------------------------ *)
(* Sweep: the delta evaluator against ground-truth diffs. *)

let normalize (d : Core.Risk_diff.t) =
  let key (c : Core.Risk_diff.change) = c in
  {
    d with
    Core.Risk_diff.removed = List.sort compare (List.map key d.removed);
    added = List.sort compare (List.map key d.added);
    changed = List.sort compare (List.map key d.changed);
  }

let check_sweep_against_truth name analysis =
  let base =
    match Core.Whatif.prepare analysis with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let before = Option.get analysis.Core.Analysis.disclosure in
  (* The candidate list carries a σ edit for each scenario's fields; on
     the other scenario's model it names an unknown field and must be
     refused. *)
  let fields =
    Diagram.all_fields (Core.Universe.diagram analysis.Core.Analysis.universe)
  in
  let unknown_field = function
    | Core.Edit.Set_sensitivity (f, _) ->
      not (List.exists (Field.equal f) fields)
    | _ -> false
  in
  List.iter
    (fun edit ->
      match Core.Whatif.eval_edit base edit with
      | Error _ when unknown_field edit -> ()
      | Ok _ when unknown_field edit ->
        Alcotest.failf "%s: %s names an unknown field yet applied" name
          (Core.Edit.to_string edit)
      | Error e -> Alcotest.fail e
      | Ok o -> (
        match (o.Core.Whatif.classification, o.diff) with
        | (Core.Whatif.Replay | Core.Whatif.Full_rerun), _ -> ()
        | _, None ->
          Alcotest.failf "%s: %s classified %s but carries no diff" name
            (Core.Edit.to_string edit)
            (Core.Whatif.classification_to_string o.classification)
        | _, Some diff ->
          let t =
            Core.Analysis.run_incremental ~previous:analysis [ edit ]
          in
          let after = Option.get t.Core.Analysis.disclosure in
          let truth = Core.Risk_diff.diff ~before ~after in
          check bool_
            (Printf.sprintf "%s: %s diff matches truth" name
               (Core.Edit.to_string edit))
            true
            (normalize diff = normalize truth);
          check bool_
            (Printf.sprintf "%s: %s worst level matches" name
               (Core.Edit.to_string edit))
            true
            (o.worst_after = Some (Core.Disclosure_risk.max_level after))))
    (Core.Whatif.acl_candidates base
    @ [
        Core.Edit.Set_sensitivity (H.diagnosis, 0.2);
        Core.Edit.Set_sensitivity (Field.make "Field0", 0.99);
      ])

let test_sweep_truth_healthcare () =
  check_sweep_against_truth "healthcare"
    (healthcare_base ~profile:H.profile_case_a ())

let test_sweep_truth_synthetic () =
  check_sweep_against_truth "synthetic:3-5-2@5"
    (synth_base "synthetic:3-5-2@5")

let test_sweep_ranking () =
  let analysis = healthcare_base ~profile:H.profile_case_a () in
  let base =
    match Core.Whatif.prepare analysis with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let ranked = Core.Whatif.sweep base (Core.Whatif.acl_candidates base) in
  check bool_ "sweep covers all candidates" true
    (List.length ranked
    = List.length (Core.Whatif.acl_candidates base));
  (* Scores are descending, computed candidates before unknown ones. *)
  let rec desc = function
    | a :: (b :: _ as rest) ->
      a.Core.Whatif.score >= b.Core.Whatif.score && desc rest
    | _ -> true
  in
  check bool_ "ranking is descending" true (desc ranked);
  (* The §IV-A Delete revocation must rank with a positive score. *)
  check bool_ "delete revocation reduces risk" true
    (List.exists
       (fun r ->
         r.Core.Whatif.score > 0
         && r.outcome.Core.Whatif.classification = Core.Whatif.Delta)
       ranked)

(* ------------------------------------------------------------------ *)
(* Edit spec parser round-trip. *)

(* [spec] parses, prints back to itself, and the printed form parses
   to a structurally equal edit. *)
let check_roundtrip spec =
  match Core.Edit.parse spec with
  | Error e -> Alcotest.failf "parse %s: %s" spec e
  | Ok e ->
    let printed = Core.Edit.to_string e in
    check string_ ("roundtrip " ^ spec) spec printed;
    check bool_ ("structural roundtrip " ^ spec) true
      (Core.Edit.parse printed = Ok e)

let test_parse_roundtrip () =
  List.iter check_roundtrip
    [
      "grant:Administrator:read,delete:EHR";
      "grant:role.clinician:read:EHR:Diagnosis,Treatment";
      "revoke:Administrator:delete:EHR";
      "revoke:Nurse:read:EHR:Name";
      "revoke:Administrator:read:EHR:Diagnosis~anon";
      "grant:Researcher:read:ResearchDB:Diagnosis~anon,Age";
      "flow-:MedicalService:3";
      "flow+:ResearchStudy:9:store.EHR>actor.Researcher:Diagnosis:audit";
      "flow+:ResearchStudy:9:store.EHR>actor.Researcher:Diagnosis~anon:audit";
      "sensitivity:Diagnosis~anon=0.5";
      "agree:+ResearchStudy";
      "agree:-MedicalService";
    ];
  (* A printed "F~anon" names the anon variant, not a base field. *)
  (match Core.Edit.parse "revoke:Administrator:read:EHR:Diagnosis~anon" with
  | Ok (Core.Edit.Revoke { fields = Some [ f ]; _ }) ->
    check bool_ "anon field parses as the anon variant" true
      (Field.equal f (Field.anon_of H.diagnosis))
  | _ -> Alcotest.fail "anon revoke did not parse");
  (match Core.Edit.parse "sensitivity:Diagnosis=0.7" with
  | Ok (Core.Edit.Set_sensitivity (f, v)) ->
    check bool_ "sensitivity parse" true (Field.name f = "Diagnosis" && v = 0.7)
  | _ -> Alcotest.fail "sensitivity spec did not parse");
  List.iter
    (fun bad ->
      match Core.Edit.parse bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %s" bad
      | Error _ -> ())
    [
      "revoke:Administrator:fly:EHR";
      "nonsense";
      "sensitivity:X=1.5";
      (* Field names may not contain whitespace or be empty: an error,
         not an Invalid_argument out of Field.make. *)
      {|revoke:Admin:read:EHR:"my field"|};
      {|grant:Admin:read:EHR:Name,"a b"|};
      {|sensitivity:"a b"=0.5|};
      {|sensitivity:""=0.5|};
      {|flow+:S:1:user>actor.A:"x y"|};
    ]

(* Quoted identifiers: deterministic canonical-form cases... *)
let test_parse_roundtrip_quoted () =
  List.iter check_roundtrip
    [
      {|grant:"my admin":read:"my store"|};
      {|revoke:"role.trick":read:EHR|};
      {|revoke:role."read,write":write:"a:b":"k=v","s>t"|};
      {|flow-:"Svc One":3|};
      {|flow+:"S,vc":2:store."my store">actor."Dr. Who":"q\"uote":"with space"|};
      "sensitivity:\"a,b\"=0.5";
      {|agree:+"Svc One"|};
    ];
  (* ...and malformed quoting is rejected, not mangled. *)
  List.iter
    (fun bad ->
      match Core.Edit.parse bad with
      | Ok e ->
        Alcotest.failf "accepted bad quoting %s as %s" bad
          (Core.Edit.to_string e)
      | Error _ -> ())
    [ {|revoke:"unterminated:read:EHR|}; {|revoke:mid"quote:read:EHR|} ]

(* ...and the qcheck property over nasty identifiers: every printable
   edit (all but Set_bindings and deny-effect Grants, which have no
   spec syntax) satisfies [parse (to_string e) = Ok e]. *)
let test_quoting_roundtrip =
  let open QCheck in
  (* Actor/store/service/purpose names may contain anything. *)
  let ids =
    [
      "plain"; "my store"; "a,b"; "k=v"; "x:y"; "s>t"; "q\"uote";
      {|back\slash|}; "role.trick"; "two  spaces"; "trailing ";
    ]
  in
  (* Field names: no whitespace (Field.make's invariant), everything
     else goes. *)
  let fnames =
    [ "Field0"; "a,b"; "k=v"; "x:y"; "s>t"; "q\"uote"; {|back\slash|}; "dot.ted" ]
  in
  let gen =
    Gen.(
      let id = oneofl ids in
      let field =
        map2
          (fun name anon ->
            let f = Field.make name in
            if anon then Field.anon_of f else f)
          (oneofl fnames) bool
      in
      let fields =
        oneof
          [
            map (fun f -> [ f ]) field;
            map2
              (fun a b -> if Field.equal a b then [ a ] else [ a; b ])
              field field;
          ]
      in
      let subject =
        oneof
          [
            map (fun a -> Acl.Actor_subject a) id;
            (* an actor literally named like a role spec *)
            map (fun a -> Acl.Actor_subject ("role." ^ a)) id;
            map (fun r -> Acl.Role_subject r) id;
          ]
      in
      let perms =
        oneofl
          [
            [ Permission.Read ];
            [ Permission.Write ];
            [ Permission.Delete ];
            [ Permission.Read; Permission.Write ];
          ]
      in
      let grant =
        map2
          (fun (subject, store, perms) fields ->
            match fields with
            | None -> Core.Edit.Grant (Acl.allow subject ~store perms)
            | Some fields ->
              Core.Edit.Grant (Acl.allow subject ~store ~fields perms))
          (triple subject id perms) (opt fields)
      in
      let revoke =
        map2
          (fun (subject, store, perms) fields ->
            Core.Edit.Revoke { subject; store; fields; perms })
          (triple subject id perms) (opt fields)
      in
      let node_pair =
        oneof
          [
            map (fun a -> (Flow.User, Flow.Actor a)) id;
            map2 (fun a s -> (Flow.Actor a, Flow.Store s)) id id;
            map2 (fun s a -> (Flow.Store s, Flow.Actor a)) id id;
          ]
      in
      let add_flow =
        map2
          (fun (service, (src, dst), order) (fields, purpose) ->
            Core.Edit.Add_flow
              { service; flow = Flow.make ~order ~src ~dst ~fields ~purpose })
          (triple id node_pair (int_bound 20))
          (pair fields id)
      in
      let remove_flow =
        map2
          (fun service order -> Core.Edit.Remove_flow { service; order })
          id (int_bound 20)
      in
      let sensitivity =
        map2
          (fun f v -> Core.Edit.Set_sensitivity (f, v))
          field
          (oneof [ float_bound_inclusive 1.0; oneofl [ 0.0; 0.5; 1.0 ] ])
      in
      let agreement =
        map2
          (fun service agreed -> Core.Edit.Set_agreement { service; agreed })
          id bool
      in
      oneof [ grant; revoke; add_flow; remove_flow; sensitivity; agreement ])
  in
  QCheck.Test.make ~count:500 ~name:"quoted specs roundtrip"
    (QCheck.make ~print:Core.Edit.to_string gen)
    (fun e ->
      match Core.Edit.parse (Core.Edit.to_string e) with
      | Ok e' -> e' = e
      | Error msg ->
        QCheck.Test.fail_reportf "parse %S failed: %s" (Core.Edit.to_string e)
          msg)

(* Untrusted specs never raise: printable edits, mutated by random
   insertions, deletions and substitutions of separator, quote,
   whitespace and anon-suffix characters, either parse or are refused
   with an [Error]. *)
let test_parse_never_raises =
  let open QCheck in
  let seeds =
    [
      "grant:Administrator:read,delete:EHR";
      "grant:role.clinician:read:EHR:Diagnosis,Treatment";
      "revoke:Nurse:read:EHR:Name~anon";
      {|revoke:role."read,write":write:"a:b":"k=v","s>t"|};
      "flow-:MedicalService:3";
      {|flow+:"S,vc":2:store."my store">actor."Dr. Who":"q\"uote":"with space"|};
      "sensitivity:Diagnosis=0.7";
      "agree:+ResearchStudy";
    ]
  in
  let alphabet = ":,=>\"\\ \t~.+-0aZ" in
  let mutate spec ops =
    List.fold_left
      (fun s (kind, pos, ci) ->
        let n = String.length s in
        let c = String.make 1 alphabet.[ci mod String.length alphabet] in
        let p = if n = 0 then 0 else pos mod (n + 1) in
        match kind mod 3 with
        | 0 -> String.sub s 0 p ^ c ^ String.sub s p (n - p)
        | 1 when p < n -> String.sub s 0 p ^ String.sub s (p + 1) (n - p - 1)
        | _ when p < n -> String.sub s 0 p ^ c ^ String.sub s (p + 1) (n - p - 1)
        | _ -> s ^ c)
      spec ops
  in
  let gen =
    Gen.(
      map2 mutate (oneofl seeds)
        (list_size (1 -- 4) (triple nat nat nat)))
  in
  QCheck.Test.make ~count:2000 ~name:"mutated specs never raise"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun spec ->
      match Core.Edit.parse spec with
      | Ok _ | Error _ -> true
      | exception exn ->
        QCheck.Test.fail_reportf "parse %S raised %s" spec
          (Printexc.to_string exn))

let () =
  Alcotest.run "whatif"
    [
      ( "incremental",
        [
          Alcotest.test_case "healthcare chain" `Quick test_healthcare_chain;
          Alcotest.test_case "healthcare chain (no profile)" `Quick
            test_healthcare_no_profile_chain;
          Alcotest.test_case "batched edits" `Quick test_batched_edits;
          Alcotest.test_case "§IV-A improvement" `Quick test_case_a_improvement;
          Alcotest.test_case "bindings chain" `Quick test_bindings_chain;
          Alcotest.test_case "synthetic chain" `Quick test_synthetic_chain;
          QCheck_alcotest.to_alcotest test_random_sequences;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "delta matches truth (healthcare)" `Quick
            test_sweep_truth_healthcare;
          Alcotest.test_case "delta matches truth (synthetic)" `Quick
            test_sweep_truth_synthetic;
          Alcotest.test_case "ranking" `Quick test_sweep_ranking;
        ] );
      ( "specs",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse roundtrip (quoted)" `Quick
            test_parse_roundtrip_quoted;
          QCheck_alcotest.to_alcotest test_quoting_roundtrip;
          QCheck_alcotest.to_alcotest test_parse_never_raises;
        ] );
    ]
