(* Tests for the paper's core: the variable universe, privacy states,
   action labels, LTS generation semantics (§II-B), user profiles, the
   risk matrix, disclosure-risk analysis (§III-A), pseudonymisation risk
   (§III-B) and the model/policy consistency check. *)

open Mdp_dataflow
module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module Acl = Mdp_policy.Acl
module Permission = Mdp_policy.Permission

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let level_t = Alcotest.testable Core.Level.pp Core.Level.equal

let universe () = Core.Universe.make H.diagram H.policy

(* ------------------------------------------------------------------ *)
(* Level *)

let test_level_order () =
  check bool_ "ordering" true
    (Core.Level.compare Core.Level.None_ Core.Level.Low < 0
    && Core.Level.compare Core.Level.Low Core.Level.Medium < 0
    && Core.Level.compare Core.Level.Medium Core.Level.High < 0);
  check level_t "max" Core.Level.High (Core.Level.max Core.Level.Low Core.Level.High);
  List.iter
    (fun l ->
      check bool_ "string roundtrip" true
        (Core.Level.of_string (Core.Level.to_string l) = Some l))
    [ Core.Level.None_; Core.Level.Low; Core.Level.Medium; Core.Level.High ]

(* ------------------------------------------------------------------ *)
(* Universe *)

let test_universe_dimensions () =
  let u = universe () in
  check int_ "actors" 5 (Core.Universe.nactors u);
  (* 6 base + 4 anon variants *)
  check int_ "fields" 10 (Core.Universe.nfields u);
  check int_ "stores" 3 (Core.Universe.nstores u);
  check int_ "flows" 9 (Core.Universe.nflows u);
  check int_ "state variables (per has/could copy)" 50 (Core.Universe.nvars u)

let test_universe_indexing () =
  let u = universe () in
  let a = Core.Universe.actor_index u "Doctor" in
  check Alcotest.string "actor roundtrip" "Doctor" (Core.Universe.actor_name u a);
  let f = Core.Universe.field_index u H.diagnosis in
  check bool_ "field roundtrip" true
    (Field.equal H.diagnosis (Core.Universe.field_at u f));
  let v = Core.Universe.var u ~actor:a ~field:f in
  check int_ "var actor" a (Core.Universe.var_actor u v);
  check int_ "var field" f (Core.Universe.var_field u v);
  match Core.Universe.actor_index u "Nobody" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown actor resolved"

let test_universe_policy_caches () =
  let u = universe () in
  let ehr = Core.Universe.store_index u "EHR" in
  let diag = Core.Universe.field_index u H.diagnosis in
  let readers =
    List.map (Core.Universe.actor_name u)
      (Core.Universe.readers u ~store:ehr ~field:diag)
  in
  check (Alcotest.list Alcotest.string) "diagnosis readers"
    [ "Doctor"; "Administrator" ] readers;
  let deleters =
    List.map (Core.Universe.actor_name u) (Core.Universe.deleters u ~store:ehr)
  in
  check (Alcotest.list Alcotest.string) "EHR deleters" [ "Administrator" ] deleters;
  let nurse = Core.Universe.actor_index u "Nurse" in
  check int_ "nurse reads 2 EHR fields" 2
    (List.length (Core.Universe.readable_by u ~actor:nurse ~store:ehr))

let test_universe_with_policy () =
  let u = universe () in
  let u' = Core.Universe.with_policy u H.fixed_policy in
  let ehr = Core.Universe.store_index u' "EHR" in
  let diag = Core.Universe.field_index u' H.diagnosis in
  let readers =
    List.map (Core.Universe.actor_name u')
      (Core.Universe.readers u' ~store:ehr ~field:diag)
  in
  check (Alcotest.list Alcotest.string) "admin revoked" [ "Doctor" ] readers;
  check int_ "original untouched" 2
    (List.length (Core.Universe.readers u ~store:ehr ~field:diag))

let test_universe_rejects_bad_policy () =
  let bad =
    Mdp_policy.Policy.make
      [ Acl.allow (Acl.Actor_subject "Ghost") ~store:"EHR" [ Permission.Read ] ]
  in
  match Core.Universe.make H.diagram bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid policy accepted"

(* ------------------------------------------------------------------ *)
(* Privacy state *)

let test_privacy_state () =
  let u = universe () in
  let s = Core.Privacy_state.absolute u in
  check bool_ "absolute has none" true
    (Mdp_prelude.Bitset.to_list s.Core.Privacy_state.has = []
    && Mdp_prelude.Bitset.to_list s.Core.Privacy_state.could = []);
  let copy b =
    Mdp_prelude.Bitset.of_list (Mdp_prelude.Bitset.length b)
      (Mdp_prelude.Bitset.to_list b)
  in
  let s' =
    {
      Core.Privacy_state.has = copy s.has;
      could = copy s.could;
    }
  in
  let v =
    Core.Universe.var u
      ~actor:(Core.Universe.actor_index u "Doctor")
      ~field:(Core.Universe.field_index u H.diagnosis)
  in
  Mdp_prelude.Bitset.set s'.Core.Privacy_state.has v;
  check bool_ "copy isolated" false (Core.Privacy_state.equal s s');
  check bool_ "has query" true
    (Core.Privacy_state.has u s' ~actor:"Doctor" ~field:H.diagnosis);
  check bool_ "could untouched" false
    (Core.Privacy_state.could u s' ~actor:"Doctor" ~field:H.diagnosis);
  check (Alcotest.list int_) "one variable set" [ v ]
    (Mdp_prelude.Bitset.to_list s'.Core.Privacy_state.has);
  (* The Fig. 2 table renders header + rule + one row per actor. *)
  let rendered = Format.asprintf "%a" (Core.Privacy_state.pp_table u) s' in
  check int_ "table line count" 7
    (List.length (String.split_on_char '\n' rendered))


(* ------------------------------------------------------------------ *)
(* Action labels *)

let test_action_label () =
  let a =
    Core.Action.make ~schema:"HealthRecord" ~store:"EHR" ~purpose:"p"
      ~kind:Core.Action.Read ~fields:[ H.diagnosis ] ~actor:"Administrator"
      Core.Action.Potential
  in
  let printed = Format.asprintf "%a" Core.Action.pp a in
  let contains needle =
    let hn = String.length printed and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub printed i nn = needle || go (i + 1)) in
    go 0
  in
  check bool_ "prints kind" true (contains "read");
  check bool_ "prints schema" true (contains ":HealthRecord");
  check bool_ "prints provenance" true (contains "[potential]");
  check bool_ "prints purpose" true (contains "for \"p\"");
  (* risk annotation changes equality and printing *)
  let a' =
    Core.Action.with_risk a
      { impact = Core.Level.High; likelihood = Core.Level.Low; level = Core.Level.Medium }
  in
  check bool_ "risk breaks equality" false (Core.Action.equal a a');
  check bool_ "risk printed" true
    (let p = Format.asprintf "%a" Core.Action.pp a' in
     String.length p > String.length printed);
  match Core.Action.make ~kind:Core.Action.Read ~fields:[] ~actor:"x" Core.Action.Potential with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty field list accepted"

(* ------------------------------------------------------------------ *)
(* Generation semantics *)

let run_lts ?(options = Core.Generate.default_options) () =
  let u = universe () in
  (u, Core.Generate.run ~options u)

let test_generation_initial_state () =
  let u, lts = run_lts () in
  let init = Core.Plts.state_data lts (Core.Plts.initial lts) in
  check bool_ "initial is absolute privacy" true
    (Core.Privacy_state.equal init.Core.Config.privacy
       (Core.Privacy_state.absolute u))

let test_generation_flow_only_medical () =
  (* Fig. 3: the Medical Service alone is a 7-state chain. *)
  let u = universe () in
  let lts =
    Core.Generate.run
      ~options:
        { Core.Generate.flow_only with services = Some [ H.medical_service ] }
      u
  in
  check int_ "states" 7 (Core.Plts.num_states lts);
  check int_ "transitions" 6 (Core.Plts.num_transitions lts);
  check bool_ "acyclic" true (Core.Plts.longest_path lts <> None);
  check bool_ "deterministic" true (Core.Plts.is_deterministic lts)

let test_generation_strict_ordering () =
  let _, lts = run_lts ~options:Core.Generate.flow_only () in
  let init = Core.Plts.initial lts in
  List.iter
    (fun ((label : Core.Action.t), _) ->
      match label.provenance with
      | Core.Action.From_flow { order; _ } ->
        check int_ "only first flows enabled initially" 1 order
      | Core.Action.Potential ->
        Alcotest.fail "flow_only should not emit potential actions")
    (Core.Plts.successors lts init)

let test_generation_data_driven_larger () =
  let u = universe () in
  let strict = Core.Generate.run ~options:Core.Generate.flow_only u in
  let dd =
    Core.Generate.run
      ~options:
        { Core.Generate.flow_only with ordering = Core.Generate.Data_driven }
      u
  in
  check bool_ "data-driven explores at least as many states" true
    (Core.Plts.num_states dd >= Core.Plts.num_states strict)

let test_generation_could_semantics () =
  (* After the Doctor creates the EHR record, every policy-permitted
     reader could identify the stored fields. *)
  let u, lts = run_lts ~options:Core.Generate.flow_only () in
  let created =
    List.filter
      (fun s ->
        let cfg = Core.Plts.state_data lts s in
        Core.Privacy_state.could u cfg.Core.Config.privacy
          ~actor:"Administrator" ~field:H.diagnosis)
      (List.init (Core.Plts.num_states lts) Fun.id)
  in
  check bool_ "admin could identify diagnosis somewhere" true (created <> []);
  List.iter
    (fun s ->
      let cfg = Core.Plts.state_data lts s in
      check bool_ "nurse could treatment" true
        (Core.Privacy_state.could u cfg.Core.Config.privacy ~actor:"Nurse"
           ~field:H.treatment);
      check bool_ "nurse could not diagnosis" false
        (Core.Privacy_state.could u cfg.Core.Config.privacy ~actor:"Nurse"
           ~field:H.diagnosis))
    created

let test_generation_potential_reads_appear () =
  let _, lts = run_lts () in
  let has_potential = ref false in
  Core.Plts.iter_transitions lts (fun tr ->
      if tr.label.Core.Action.provenance = Core.Action.Potential then begin
        has_potential := true;
        check bool_ "potential actions are reads" true
          (tr.label.Core.Action.kind = Core.Action.Read)
      end);
  check bool_ "some potential read exists" true !has_potential

let test_generation_granular_vs_coarse () =
  let u = universe () in
  let coarse = Core.Generate.run u in
  let granular =
    Core.Generate.run
      ~options:{ Core.Generate.default_options with granular_reads = true }
      u
  in
  check bool_ "granular at least as many states" true
    (Core.Plts.num_states granular >= Core.Plts.num_states coarse);
  Core.Plts.iter_transitions granular (fun tr ->
      if tr.label.Core.Action.provenance = Core.Action.Potential then
        check int_ "one field per granular read" 1
          (List.length tr.label.Core.Action.fields))

let test_generation_enforcement () =
  (* Under the fixed policy no read by the Administrator delivers the
     Diagnosis. *)
  let u = Core.Universe.make H.diagram H.fixed_policy in
  let lts = Core.Generate.run u in
  Core.Plts.iter_transitions lts (fun tr ->
      let l = tr.label in
      if
        l.Core.Action.kind = Core.Action.Read
        && l.Core.Action.actor = "Administrator"
      then
        check bool_ "no diagnosis delivered to admin" false
          (List.exists (Field.equal H.diagnosis) l.Core.Action.fields))

let test_generation_deletes () =
  let u = universe () in
  let lts =
    Core.Generate.run
      ~options:{ Core.Generate.default_options with potential_deletes = true }
      u
  in
  let found = ref false in
  Core.Plts.iter_transitions lts (fun tr ->
      if tr.label.Core.Action.kind = Core.Action.Delete then begin
        found := true;
        check Alcotest.string "only the EHR deleter" "Administrator"
          tr.label.Core.Action.actor;
        let dst = Core.Plts.state_data lts tr.dst in
        let store =
          Core.Universe.store_index u (Option.get tr.label.Core.Action.store)
        in
        check bool_ "store emptied" true
          (Mdp_prelude.Bitset.to_list dst.Core.Config.stores.(store) = [])
      end);
  check bool_ "a delete transition exists" true !found

let test_generation_determinism () =
  let _, a = run_lts () in
  let _, b = run_lts () in
  check int_ "same states" (Core.Plts.num_states a) (Core.Plts.num_states b);
  check int_ "same transitions" (Core.Plts.num_transitions a)
    (Core.Plts.num_transitions b)

let prop_generation_synthetic_bounded =
  QCheck.Test.make ~name:"synthetic models generate acyclic LTSs" ~count:15
    QCheck.(int_range 1 100)
    (fun seed ->
      let spec =
        {
          Mdp_scenario.Synthetic.seed;
          nactors = 3;
          nfields = 4;
          nstores = 2;
          nservices = 2;
          flows_per_service = 3;
        }
      in
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      let u = Core.Universe.make diagram policy in
      let lts = Core.Generate.run u in
      Core.Plts.num_states lts >= 1 && Core.Plts.longest_path lts <> None)


let prop_strict_subset_of_data_driven =
  (* Relaxing the ordering can only add behaviour: every configuration
     reachable under Strict is reachable under Data_driven. *)
  QCheck.Test.make ~name:"strict-reachable subset of data-driven" ~count:10
    QCheck.(int_range 1 200)
    (fun seed ->
      let spec =
        {
          Mdp_scenario.Synthetic.seed;
          nactors = 3;
          nfields = 3;
          nstores = 2;
          nservices = 2;
          flows_per_service = 3;
        }
      in
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      let u = Core.Universe.make diagram policy in
      let strict = Core.Generate.run ~options:Core.Generate.flow_only u in
      let dd =
        Core.Generate.run
          ~options:
            { Core.Generate.flow_only with ordering = Core.Generate.Data_driven }
          u
      in
      let module Tbl = Hashtbl.Make (Core.Config) in
      let seen = Tbl.create 64 in
      Core.Plts.iter_states dd (fun s -> Tbl.replace seen (Core.Plts.state_data dd s) ());
      List.for_all
        (fun s -> Tbl.mem seen (Core.Plts.state_data strict s))
        (List.init (Core.Plts.num_states strict) Fun.id))

let test_lts_render_smoke () =
  let u = universe () in
  let lts = Core.Generate.run u in
  let dot = Core.Lts_render.to_dot lts in
  let contains needle =
    let hn = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  check bool_ "digraph" true (contains "digraph privacy_lts");
  check bool_ "dashed potential" true (contains "style=dashed");
  let summary = Core.Lts_render.summary u lts in
  check bool_ "summary mentions counts" true
    (String.length summary > 10 && contains "digraph" = contains "digraph")

(* ------------------------------------------------------------------ *)
(* User profile *)

let test_profile_basics () =
  let p = H.profile_case_a in
  check bool_ "agrees medical" true
    (Core.User_profile.agrees_to p H.medical_service);
  check bool_ "not research" false
    (Core.User_profile.agrees_to p H.research_service);
  check (Alcotest.float 1e-9) "diagnosis sigma" 0.9
    (Core.User_profile.sensitivity p H.diagnosis);
  check (Alcotest.float 1e-9) "unlisted field" 0.0
    (Core.User_profile.sensitivity p H.treatment);
  check (Alcotest.float 1e-9) "anon not inherited" 0.0
    (Core.User_profile.sensitivity p (Field.anon_of H.diagnosis))

let test_profile_allowed_actors () =
  let p = H.profile_case_a in
  check (Alcotest.list Alcotest.string) "allowed"
    [ "Receptionist"; "Doctor"; "Nurse" ]
    (Core.User_profile.allowed_actors p H.diagram);
  check (Alcotest.list Alcotest.string) "non-allowed"
    [ "Administrator"; "Researcher" ]
    (Core.User_profile.non_allowed_actors p H.diagram);
  check (Alcotest.float 1e-9) "sigma allowed actor" 0.0
    (Core.User_profile.sigma p H.diagram ~actor:"Doctor" H.diagnosis);
  check (Alcotest.float 1e-9) "sigma non-allowed actor" 0.9
    (Core.User_profile.sigma p H.diagram ~actor:"Administrator" H.diagnosis)

let test_profile_invalid () =
  (match
     Core.User_profile.make
       ~sensitivities:[ (H.diagnosis, 1.5) ]
       ~agreed_services:[] ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sensitivity > 1 accepted");
  match
    Core.User_profile.make
      ~sensitivities:[ (H.diagnosis, 0.5); (H.diagnosis, 0.6) ]
      ~agreed_services:[] ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate field accepted"

(* ------------------------------------------------------------------ *)
(* Risk matrix *)

let test_risk_matrix_default () =
  let m = Core.Risk_matrix.default in
  check level_t "zero impact" Core.Level.None_ (Core.Risk_matrix.impact_level m 0.0);
  check level_t "low impact" Core.Level.Low (Core.Risk_matrix.impact_level m 0.2);
  check level_t "medium impact" Core.Level.Medium (Core.Risk_matrix.impact_level m 0.5);
  check level_t "high impact" Core.Level.High (Core.Risk_matrix.impact_level m 0.9);
  check level_t "low likelihood" Core.Level.Low
    (Core.Risk_matrix.likelihood_level m 0.05);
  check level_t "H x L = Medium" Core.Level.Medium
    (Core.Risk_matrix.level m ~impact:Core.Level.High ~likelihood:Core.Level.Low);
  check level_t "L x L = Low" Core.Level.Low
    (Core.Risk_matrix.level m ~impact:Core.Level.Low ~likelihood:Core.Level.Low);
  check level_t "H x H = High" Core.Level.High
    (Core.Risk_matrix.level m ~impact:Core.Level.High ~likelihood:Core.Level.High);
  check level_t "None collapses" Core.Level.None_
    (Core.Risk_matrix.level m ~impact:Core.Level.None_ ~likelihood:Core.Level.High)

let test_risk_matrix_custom () =
  (match Core.Risk_matrix.make ~impact_thresholds:(0.7, 0.4) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing thresholds accepted");
  let strict_table =
    [|
      [| Core.Level.Medium; Core.Level.High; Core.Level.High |];
      [| Core.Level.High; Core.Level.High; Core.Level.High |];
      [| Core.Level.High; Core.Level.High; Core.Level.High |];
    |]
  in
  let m = Core.Risk_matrix.make ~table:strict_table () in
  check level_t "custom table" Core.Level.Medium
    (Core.Risk_matrix.level m ~impact:Core.Level.Low ~likelihood:Core.Level.Low)


let prop_risk_matrix_monotone =
  (* Raising either dimension never lowers the resulting level. *)
  QCheck.Test.make ~name:"risk matrix monotone in both dimensions" ~count:200
    QCheck.(pair (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
              (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun ((i1, l1), (i2, l2)) ->
      let m = Core.Risk_matrix.default in
      let level i l =
        Core.Risk_matrix.level m
          ~impact:(Core.Risk_matrix.impact_level m i)
          ~likelihood:(Core.Risk_matrix.likelihood_level m l)
      in
      let lo_i = Float.min i1 i2 and hi_i = Float.max i1 i2 in
      let lo_l = Float.min l1 l2 and hi_l = Float.max l1 l2 in
      Core.Level.compare (level hi_i lo_l) (level lo_i lo_l) >= 0
      && Core.Level.compare (level lo_i hi_l) (level lo_i lo_l) >= 0)

(* ------------------------------------------------------------------ *)
(* Disclosure risk (§III-A / §IV-A) *)

let case_a () =
  let u = universe () in
  let lts = Core.Generate.run u in
  let report = Core.Disclosure_risk.analyse u lts H.profile_case_a in
  (u, lts, report)

let test_case_a_non_allowed () =
  let _, _, report = case_a () in
  check (Alcotest.list Alcotest.string) "non-allowed"
    [ "Administrator"; "Researcher" ] report.non_allowed

let test_case_a_medium () =
  let _, _, report = case_a () in
  check level_t "admin/EHR/Diagnosis is Medium" Core.Level.Medium
    (Core.Disclosure_risk.level_for report ~actor:"Administrator" ~store:"EHR"
       ~field:H.diagnosis);
  check level_t "max is Medium" Core.Level.Medium
    (Core.Disclosure_risk.max_level report)

let test_case_a_no_researcher_findings () =
  let _, _, report = case_a () in
  check int_ "researcher has no findings (anon data only)" 0
    (List.length (Core.Disclosure_risk.findings_for report ~actor:"Researcher"))

let test_case_a_witnesses_reach_src () =
  let _, lts, report = case_a () in
  List.iter
    (fun (f : Core.Disclosure_risk.finding) ->
      (* Replaying the witness labels from the initial state must land on
         the finding's source state (modulo risk annotations added after
         the witness was captured). *)
      let state = ref (Core.Plts.initial lts) in
      List.iter
        (fun (a : Core.Action.t) ->
          match
            List.find_opt
              (fun ((l : Core.Action.t), _) ->
                Core.Action.equal { l with risk = None } { a with risk = None })
              (Core.Plts.successors lts !state)
          with
          | Some (_, next) -> state := next
          | None -> Alcotest.fail "witness step not found")
        (Core.Disclosure_risk.witness f);
      check int_ "witness reaches finding source" f.src !state)
    (List.filteri (fun i _ -> i < 5) report.findings)

(* Every finding and exposure of the compiled analysis carries the tree
   path to its source: replayed from the initial state label by label
   (risk annotations aside) it reaches [src], in as many hops as [src]'s
   depth in the witness tree. *)
let witnesses_replay lts (report : Core.Disclosure_risk.report) =
  let parent, _ = Core.Plts.witness_tree lts in
  let depth = Array.make (Array.length parent) 0 in
  Array.iteri (fun s p -> if p >= 0 then depth.(s) <- depth.(p) + 1) parent;
  let raw (a : Core.Action.t) = { a with risk = None } in
  let step states hop =
    List.sort_uniq compare
      (List.concat_map
         (fun s ->
           List.filter_map
             (fun (l, d) ->
               if Core.Action.equal (raw l) (raw hop) then Some d else None)
             (Core.Plts.successors lts s))
         states)
  in
  let replays (f : Core.Disclosure_risk.finding) =
    let witness = Core.Disclosure_risk.witness f in
    List.length witness = depth.(f.src)
    && List.mem f.src
         (List.fold_left step [ Core.Plts.initial lts ] witness)
  in
  List.for_all replays report.findings && List.for_all replays report.exposures

(* A profile under which every read is risky: every field sensitive, no
   service agreed. *)
let all_rogue diagram =
  Core.User_profile.make
    ~sensitivities:(List.map (fun f -> (f, 0.9)) (Diagram.all_fields diagram))
    ~agreed_services:[] ()

let analyse_compiled diagram policy profile =
  let u = Core.Universe.make diagram policy in
  let lts = Core.Generate.run u in
  (lts, Core.Risk_plan.analyse (Core.Risk_plan.compile u lts) profile)

let prop_witnesses_replay =
  QCheck.Test.make ~name:"every witness replays (synthetic models)" ~count:15
    QCheck.(quad (int_range 1 200) (int_range 3 4) (int_range 4 6) bool)
    (fun (seed, nactors, nfields, rogue) ->
      let spec =
        { Mdp_scenario.Synthetic.seed; nactors; nfields; nstores = 2;
          nservices = 2; flows_per_service = 4 }
      in
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      let profile =
        if rogue then all_rogue diagram
        else Mdp_scenario.Synthetic.profile spec diagram
      in
      let lts, report = analyse_compiled diagram policy profile in
      witnesses_replay lts report)

let test_shipped_witnesses_replay () =
  let dir = if Sys.file_exists "../models" then "../models" else "models" in
  let models =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mdp")
    |> List.sort String.compare
  in
  check bool_ "shipped models found" true (models <> []);
  List.iter
    (fun name ->
      match
        Mdp_dsl.Parser.parse
          (In_channel.with_open_bin (Filename.concat dir name)
             In_channel.input_all)
      with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok m ->
        let lts, report =
          analyse_compiled m.diagram m.policy (all_rogue m.diagram)
        in
        check bool_ (name ^ " has findings") true (report.findings <> []);
        check bool_ (name ^ " witnesses replay") true
          (witnesses_replay lts report))
    models

let test_case_a_fix_reduces_to_low () =
  let u, _, _ = case_a () in
  let u' = Core.Universe.with_policy u H.fixed_policy in
  let lts' = Core.Generate.run u' in
  let report' = Core.Disclosure_risk.analyse u' lts' H.profile_case_a in
  check level_t "after fix: Low" Core.Level.Low
    (Core.Disclosure_risk.max_level report');
  check level_t "diagnosis event gone" Core.Level.None_
    (Core.Disclosure_risk.level_for report' ~actor:"Administrator" ~store:"EHR"
       ~field:H.diagnosis)

(* The analysis returns its read labels annotated, findings and witness
   hops alike; the LTS keeps the raw labels. *)
let test_labels_annotated () =
  let _, lts, report = case_a () in
  Core.Plts.iter_transitions lts (fun tr ->
      if tr.label.Core.Action.risk <> None then
        Alcotest.fail "analysis wrote an LTS label");
  let reads =
    List.filter
      (fun (a : Core.Action.t) -> a.kind = Core.Action.Read)
      (List.concat_map
         (fun (f : Core.Disclosure_risk.finding) ->
           f.action :: Core.Disclosure_risk.witness f)
         report.findings)
  in
  check bool_ "reads annotated" true
    (reads <> []
    && List.for_all (fun (a : Core.Action.t) -> a.risk <> None) reads)

let test_exposures_reported () =
  let _, _, report = case_a () in
  check bool_ "create exposure present" true
    (List.exists
       (fun (f : Core.Disclosure_risk.finding) ->
         f.action.Core.Action.kind = Core.Action.Create
         && List.exists (Field.equal H.diagnosis) f.action.Core.Action.fields)
       report.exposures)

(* [pp_report] renders each distinct finding prefix once; the lines must
   equal [pp_finding]'s, including for adjacent findings that share one
   physical action — as every finding of a label does in both engines —
   but differ in impact, likelihood or level, and for findings whose
   actions are equal but distinct. *)
let test_report_rendering () =
  let action =
    Core.Action.make ~store:"EHR" ~kind:Core.Action.Read
      ~fields:[ H.diagnosis ] ~actor:"Administrator" Core.Action.Potential
  in
  let copy = { action with Core.Action.actor = action.actor } in
  let finding ?(action = action) src impact likelihood level :
      Core.Disclosure_risk.finding =
    { src; dst = src + 1; action; impact; likelihood; level;
      impact_level = Core.Level.Medium; likelihood_level = Core.Level.Low;
      trail = Core.Disclosure_risk.Start }
  in
  let findings =
    [
      finding 3 0.5 0.08 Core.Level.Medium;
      finding 7 0.5 0.08 Core.Level.Medium;
      finding 4 0.9 0.08 Core.Level.Medium;
      finding 5 0.5 0.08 Core.Level.High;
      finding 6 0.5 0.02 Core.Level.Medium;
      finding 3 0.5 0.08 Core.Level.Medium;
      finding ~action:copy 8 0.5 0.08 Core.Level.Medium;
    ]
  in
  let report =
    { Core.Disclosure_risk.non_allowed = [ "Administrator" ]; findings;
      exposures = [] }
  in
  let expected =
    Format.asprintf "@[<v>non-allowed actors: %s@,%d risk finding(s):@,%a@]"
      "Administrator" (List.length findings)
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut
         Core.Disclosure_risk.pp_finding)
      findings
  in
  let rendered = Format.asprintf "%a" Core.Disclosure_risk.pp_report report in
  check Alcotest.string "per-finding rendering" expected rendered;
  (* A line is "PREFIX at sN"; s7 and s4 share the action, not the
     impact. *)
  let prefix src =
    let line =
      List.find
        (String.ends_with ~suffix:(Printf.sprintf " at s%d" src))
        (String.split_on_char '\n' rendered)
    in
    String.sub line 0 (String.rindex line ' ' - 3)
  in
  check bool_ "shared action, different impact, different prefix" true
    (prefix 7 <> prefix 4)

let test_likelihood_scenarios () =
  let u = universe () in
  let model = Core.Disclosure_risk.default_likelihood in
  (* Potential read by the Administrator: accidental (0.05) + maintenance
     (0.02, it may Delete) + rogue service (0.01, the research service
     reads the EHR into it). *)
  let action =
    Core.Action.make ~store:"EHR" ~kind:Core.Action.Read
      ~fields:[ H.diagnosis ] ~actor:"Administrator" Core.Action.Potential
  in
  check (Alcotest.float 1e-9) "admin potential likelihood" 0.08
    (Core.Disclosure_risk.transition_likelihood u H.profile_case_a model action);
  let agreed_flow =
    Core.Action.make ~store:"EHR" ~kind:Core.Action.Read
      ~fields:[ H.treatment ] ~actor:"Nurse"
      (Core.Action.From_flow { service = H.medical_service; order = 6 })
  in
  check (Alcotest.float 1e-9) "agreed flow likelihood" 0.0
    (Core.Disclosure_risk.transition_likelihood u H.profile_case_a model
       agreed_flow);
  let create =
    Core.Action.make ~store:"EHR" ~kind:Core.Action.Create
      ~fields:[ H.diagnosis ] ~actor:"Doctor"
      (Core.Action.From_flow { service = H.medical_service; order = 5 })
  in
  check (Alcotest.float 1e-9) "create likelihood" 0.0
    (Core.Disclosure_risk.transition_likelihood u H.profile_case_a model create)

let test_impact_computation () =
  let u = universe () in
  let read =
    Core.Action.make ~store:"EHR" ~kind:Core.Action.Read
      ~fields:[ H.diagnosis; H.treatment ]
      ~actor:"Administrator" Core.Action.Potential
  in
  check (Alcotest.float 1e-9) "read impact = max sigma" 0.9
    (Core.Disclosure_risk.transition_impact u H.profile_case_a read);
  let allowed_read = { read with Core.Action.actor = "Doctor" } in
  check (Alcotest.float 1e-9) "allowed actor impact 0" 0.0
    (Core.Disclosure_risk.transition_impact u H.profile_case_a allowed_read);
  let create =
    Core.Action.make ~store:"EHR" ~kind:Core.Action.Create
      ~fields:[ H.diagnosis ] ~actor:"Doctor"
      (Core.Action.From_flow { service = H.medical_service; order = 5 })
  in
  check (Alcotest.float 1e-9) "create impact via admin reader" 0.9
    (Core.Disclosure_risk.transition_impact u H.profile_case_a create)


let test_disclosure_keeps_pseudonym_risks () =
  (* The two passes are independent, in either order: the pseudonymisation
     pass leaves the LTS alone, so a disclosure pass after it reports what
     it reports without it, and the risk-transitions outlive the
     disclosure pass's label rewriting. *)
  let u = Core.Universe.make H.study_diagram H.study_policy in
  let lts () =
    Core.Generate.run
      ~options:{ Core.Generate.default_options with granular_reads = true }
      u
  in
  let profile =
    Core.User_profile.make
      ~sensitivities:[ (H.weight, 0.9) ]
      ~agreed_services:[ "DataCollection" ] ()
  in
  let render report = Format.asprintf "%a" Core.Disclosure_risk.pp_report report in
  let render_rts rts =
    Format.asprintf "%a"
      (Format.pp_print_list Core.Pseudonym_risk.pp_risk_transition)
      rts
  in
  let expected = render (Core.Disclosure_risk.analyse u (lts ()) profile) in
  let lts = lts () in
  let rts = Core.Pseudonym_risk.analyse u lts [ H.study_binding ] in
  check bool_ "risk transitions exist" true (rts <> []);
  check Alcotest.string "disclosure report unchanged" expected
    (render (Core.Disclosure_risk.analyse u lts profile));
  check Alcotest.string "risk-transitions unchanged" (render_rts rts)
    (render_rts (Core.Pseudonym_risk.analyse u lts [ H.study_binding ]))

let prop_fix_never_raises_risk =
  QCheck.Test.make ~name:"revocation monotone on max level" ~count:10
    QCheck.(int_bound 4)
    (fun actor_i ->
      let u = universe () in
      let lts = Core.Generate.run u in
      let before =
        Core.Disclosure_risk.max_level
          (Core.Disclosure_risk.analyse u lts H.profile_case_a)
      in
      let actor = Core.Universe.actor_name u actor_i in
      let policy' =
        Mdp_policy.Policy.revoke H.policy ~subject:(Acl.Actor_subject actor)
          ~store:"EHR" [ Permission.Read ]
      in
      let u' = Core.Universe.with_policy u policy' in
      let lts' = Core.Generate.run u' in
      let after =
        Core.Disclosure_risk.max_level
          (Core.Disclosure_risk.analyse u' lts' H.profile_case_a)
      in
      Core.Level.compare after before <= 0)

(* ------------------------------------------------------------------ *)
(* Pseudonymisation risk (§III-B / §IV-B / Fig. 4) *)

let study () =
  let options = { Core.Generate.default_options with granular_reads = true } in
  Core.Analysis.run ~options ~bindings:[ H.study_binding ] H.study_diagram
    H.study_policy

let test_study_risk_transitions_exist () =
  let a = study () in
  check bool_ "risk transitions found" true (a.pseudonym <> []);
  List.iter
    (fun (rt : Core.Pseudonym_risk.risk_transition) ->
      check Alcotest.string "researcher is the at-risk actor" "Researcher"
        rt.actor;
      check bool_ "field is Weight" true (Field.equal rt.field H.weight))
    a.pseudonym

let test_study_violation_counts () =
  let a = study () in
  let by_fields =
    List.map
      (fun (rt : Core.Pseudonym_risk.risk_transition) ->
        ( List.sort String.compare (List.map Field.name rt.fields_read),
          rt.report.Mdp_anon.Value_risk.violations ))
      a.pseudonym
    |> Mdp_prelude.Listx.dedup
    |> List.sort compare
  in
  (* Fig. 4's labels: reading nothing or Height alone -> 0 violations;
     Age -> 2; Age+Height -> 4. *)
  check
    (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.string) int_))
    "violations by fields read"
    [
      ([], 0);
      ([ "Age~anon" ], 2);
      ([ "Age~anon"; "Height~anon" ], 4);
      ([ "Height~anon" ], 0);
    ]
    by_fields

(* Every risk-transition carries its §III-B scores over the six released
   records, leads out of an explored state into a target numbered past
   them, one target per transition. *)
let test_study_risk_transitions_annotated () =
  let a = study () in
  let n = Core.Plts.num_states a.lts in
  check int_ "eleven risk-transitions" 11 (List.length a.pseudonym);
  List.iteri
    (fun k (rt : Core.Pseudonym_risk.risk_transition) ->
      check int_ "scores cover the release" 6
        (List.length rt.report.Mdp_anon.Value_risk.scores);
      check bool_ "source explored" true (rt.src < n);
      check int_ "target numbered past the explored states" (n + k) rt.dst)
    a.pseudonym

(* The study with the raw Weight handed to the Researcher by a flow. *)
let study_with_weight_flow () =
  let inputs =
    {
      Core.Edit.diagram = H.study_diagram;
      policy = H.study_policy;
      profile = None;
      bindings = [];
    }
  in
  let flow =
    Flow.make ~order:6 ~src:(Flow.Actor "Administrator")
      ~dst:(Flow.Actor "Researcher") ~fields:[ H.weight ]
      ~purpose:"share raw weights"
  in
  match Core.Edit.apply inputs (Core.Edit.Add_flow { service = "ResearchStudy"; flow }) with
  | Ok inputs -> inputs.diagram
  | Error e -> Alcotest.fail e

(* Explored configs by value, to look a risk-transition target up. *)
module Cfg_tbl = Hashtbl.Make (Core.Config)

(* The target of [rt]: its source config with the raw field identified.
   [state_data] decodes a fresh config, so setting the bit leaves the LTS
   alone. *)
let target_config u lts (rt : Core.Pseudonym_risk.risk_transition) =
  let cfg = Core.Plts.state_data lts rt.src in
  Mdp_prelude.Bitset.set cfg.privacy.has
    (Core.Universe.var u
       ~actor:(Core.Universe.actor_index u rt.actor)
       ~field:(Core.Universe.field_index u rt.field));
  cfg

(* An actor that already holds the raw field infers nothing: the state
   where the Researcher received Weight by a flow has no risk-transition.
   Every target is a state exploration never reached. *)
let test_held_field_not_inferred () =
  let options = { Core.Generate.default_options with granular_reads = true } in
  let diagram = study_with_weight_flow () in
  let a =
    Core.Analysis.run ~options ~bindings:[ H.study_binding ] diagram
      H.study_policy
  in
  check int_ "eleven risk-transitions" 11 (List.length a.pseudonym);
  check bool_ "no self-loop" true
    (List.for_all
       (fun (rt : Core.Pseudonym_risk.risk_transition) -> rt.src <> rt.dst)
       a.pseudonym);
  check bool_ "LTS stays acyclic" true (Core.Plts.longest_path a.lts <> None);
  let explored = Cfg_tbl.create 64 in
  Core.Plts.iter_states a.lts (fun s ->
      Cfg_tbl.replace explored (Core.Plts.state_data a.lts s) ());
  List.iter
    (fun rt ->
      check bool_ "target is not an explored state" false
        (Cfg_tbl.mem explored (target_config a.universe a.lts rt)))
    a.pseudonym

(* Two bindings see the same explored states: each reports its own
   risk-transitions, and the same inference from the same state shares
   one target, so the summary counts it once. The LTS itself equals the
   one a run without bindings explores. *)
let test_bindings_do_not_chain () =
  let options = { Core.Generate.default_options with granular_reads = true } in
  let run bindings =
    Core.Analysis.run ~options ~bindings H.study_diagram H.study_policy
  in
  let a = run [ H.study_binding; H.study_binding ] in
  let single = run [ H.study_binding ] and bare = run [] in
  let first = List.filteri (fun k _ -> k < 11) a.pseudonym
  and second = List.filteri (fun k _ -> k >= 11) a.pseudonym in
  let render =
    List.map (Format.asprintf "%a" Core.Pseudonym_risk.pp_risk_transition)
  in
  check int_ "eleven per binding" 22 (List.length a.pseudonym);
  check (Alcotest.list Alcotest.string) "first binding as alone"
    (render single.pseudonym) (render first);
  check (Alcotest.list Alcotest.string) "second binding shares the targets"
    (render first) (render second);
  check Alcotest.string "summary"
    "45 states, 93 transitions (anon 1, collect 1, create 1, read 90; flow \
     33, inferred 11, potential 49)"
    (Core.Lts_render.summary_with_risks a.lts a.pseudonym);
  let triples (x : Core.Analysis.t) =
    let acc = ref [] in
    Core.Plts.iter_transitions x.lts (fun tr ->
        acc := (tr.src, Format.asprintf "%a" Core.Action.pp tr.label, tr.dst) :: !acc);
    List.rev !acc
  in
  check int_ "same states" (Core.Plts.num_states bare.lts)
    (Core.Plts.num_states a.lts);
  Core.Plts.iter_states a.lts (fun s ->
      check bool_ "same state data" true
        (Core.Config.equal
           (Core.Plts.state_data bare.lts s)
           (Core.Plts.state_data a.lts s)));
  check bool_ "same transitions" true (triples bare = triples a)

let test_study_gate () =
  let a = study () in
  (match Core.Pseudonym_risk.check ~max_violation_ratio:0.5 a.pseudonym with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "4/6 violations should trip a 50% gate");
  match Core.Pseudonym_risk.check ~max_violation_ratio:0.7 a.pseudonym with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_no_risk_when_raw_access_allowed () =
  let policy' =
    Mdp_policy.Policy.grant H.study_policy
      (Acl.allow (Acl.Actor_subject "Researcher") ~store:"StudyRecords"
         ~fields:[ H.weight ] [ Permission.Read ])
  in
  let options = { Core.Generate.default_options with granular_reads = true } in
  let a =
    Core.Analysis.run ~options ~bindings:[ H.study_binding ] H.study_diagram
      policy'
  in
  check int_ "no inferred transitions" 0 (List.length a.pseudonym)

let test_binding_validation () =
  (match
     Core.Pseudonym_risk.make_binding ~store:"AnonStudy"
       ~dataset:H.table1_released
       ~attr_fields:[ ("Age", H.age) ]
       ~policy:H.value_policy
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound sensitive accepted");
  (match
     Core.Pseudonym_risk.make_binding ~store:"AnonStudy"
       ~dataset:H.table1_released
       ~attr_fields:
         [
           ("Age", H.age);
           ("Height", H.height);
           ("Weight", H.weight);
           ("Ghost", H.name);
         ]
       ~policy:H.value_policy
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign attribute accepted");
  (* A policy outside its range: a negative radius reads every record
     as safe, a confidence outside [0,1] flags every record or none. *)
  List.iter
    (fun (what, policy) ->
      match
        Core.Pseudonym_risk.make_binding ~store:"AnonStudy"
          ~dataset:H.table1_released
          ~attr_fields:[ ("Age", H.age); ("Height", H.height); ("Weight", H.weight) ]
          ~policy
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("closeness -1", { H.value_policy with closeness = -1.0 });
      ("closeness nan", { H.value_policy with closeness = Float.nan });
      ("closeness inf", { H.value_policy with closeness = Float.infinity });
      ("confidence 2", { H.value_policy with confidence = 2.0 });
      ("confidence -1", { H.value_policy with confidence = -1.0 });
      ("confidence nan", { H.value_policy with confidence = Float.nan });
    ]

(* Fig. 4's eleven risk-transitions read four distinct quasi sets; each
   set is assessed once and its transitions share the report, which
   equals the naive oracle's on that set. *)
let test_study_one_report_per_read_set () =
  let a = study () in
  let reports =
    List.fold_left
      (fun acc (rt : Core.Pseudonym_risk.risk_transition) ->
        if List.exists (fun r -> r == rt.report) acc then acc
        else rt.report :: acc)
      [] a.pseudonym
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "one report per read set"
    [ []; [ "Age" ]; [ "Age"; "Height" ]; [ "Height" ] ]
    (List.sort compare
       (List.map (fun (r : Mdp_anon.Value_risk.report) -> r.fields_read) reports));
  let attr_of anon =
    fst
      (List.find
         (fun (_, base) -> Field.equal (Field.anon_of base) anon)
         H.study_binding.attr_fields)
  in
  List.iter
    (fun (rt : Core.Pseudonym_risk.risk_transition) ->
      let fields_read = List.map attr_of rt.fields_read in
      check bool_
        (Printf.sprintf "s%d report is the oracle's" rt.src)
        true
        (rt.report
        = Naive_value_risk.assess H.table1_released ~fields_read H.value_policy))
    a.pseudonym

(* ------------------------------------------------------------------ *)
(* Consistency *)

let test_consistency_clean () =
  let u = universe () in
  check int_ "healthcare policy covers all flows" 0
    (List.length (Core.Consistency.check u))

let test_consistency_gap_after_fix () =
  let u = Core.Universe.make H.diagram H.fixed_policy in
  match Core.Consistency.check u with
  | [ gap ] ->
    check Alcotest.string "actor" "Administrator" gap.actor;
    check Alcotest.string "store" "EHR" gap.store;
    check bool_ "missing read" true (gap.missing = Permission.Read);
    check (Alcotest.list Alcotest.string) "field" [ "Diagnosis" ]
      (List.map Field.name gap.fields)
  | gaps -> Alcotest.failf "expected exactly one gap, got %d" (List.length gaps)

let test_consistency_write_gap () =
  let policy' =
    Mdp_policy.Policy.revoke H.policy ~subject:(Acl.Actor_subject "Doctor")
      ~store:"EHR" [ Permission.Write ]
  in
  let u = Core.Universe.make H.diagram policy' in
  check bool_ "write gap reported" true
    (List.exists
       (fun (g : Core.Consistency.gap) ->
         g.actor = "Doctor" && g.missing = Permission.Write)
       (Core.Consistency.check u))

(* ------------------------------------------------------------------ *)
(* Analysis façade *)

let test_analysis_facade () =
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  check bool_ "disclosure present" true (a.disclosure <> None);
  check int_ "no gaps" 0 (List.length a.consistency);
  let a' = Core.Analysis.rerun_with_policy a H.fixed_policy in
  check level_t "rerun reduces" Core.Level.Low
    (Core.Disclosure_risk.max_level (Option.get a'.disclosure));
  check bool_ "profile kept across rerun" true (a'.params.profile <> None)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [
      ("level", [ Alcotest.test_case "ordering" `Quick test_level_order ]);
      ( "universe",
        [
          Alcotest.test_case "dimensions" `Quick test_universe_dimensions;
          Alcotest.test_case "indexing" `Quick test_universe_indexing;
          Alcotest.test_case "policy caches" `Quick test_universe_policy_caches;
          Alcotest.test_case "with_policy" `Quick test_universe_with_policy;
          Alcotest.test_case "rejects bad policy" `Quick
            test_universe_rejects_bad_policy;
        ] );
      ("action", [ Alcotest.test_case "labels" `Quick test_action_label ]);
      ( "privacy state",
        [ Alcotest.test_case "queries/table" `Quick test_privacy_state ] );
      ( "generation",
        [
          Alcotest.test_case "initial state" `Quick test_generation_initial_state;
          Alcotest.test_case "Fig 3 medical service" `Quick
            test_generation_flow_only_medical;
          Alcotest.test_case "strict ordering" `Quick test_generation_strict_ordering;
          Alcotest.test_case "data-driven wider" `Quick
            test_generation_data_driven_larger;
          Alcotest.test_case "could semantics" `Quick test_generation_could_semantics;
          Alcotest.test_case "potential reads" `Quick
            test_generation_potential_reads_appear;
          Alcotest.test_case "granular reads" `Quick test_generation_granular_vs_coarse;
          Alcotest.test_case "enforcement" `Quick test_generation_enforcement;
          Alcotest.test_case "deletes" `Quick test_generation_deletes;
          Alcotest.test_case "determinism" `Quick test_generation_determinism;
          qtest prop_generation_synthetic_bounded;
          qtest prop_strict_subset_of_data_driven;
          Alcotest.test_case "render smoke" `Quick test_lts_render_smoke;
        ] );
      ( "profile",
        [
          Alcotest.test_case "basics" `Quick test_profile_basics;
          Alcotest.test_case "allowed actors" `Quick test_profile_allowed_actors;
          Alcotest.test_case "invalid" `Quick test_profile_invalid;
        ] );
      ( "risk matrix",
        [
          Alcotest.test_case "default" `Quick test_risk_matrix_default;
          Alcotest.test_case "custom" `Quick test_risk_matrix_custom;
          qtest prop_risk_matrix_monotone;
        ] );
      ( "disclosure risk (section IV-A)",
        [
          Alcotest.test_case "non-allowed actors" `Quick test_case_a_non_allowed;
          Alcotest.test_case "Medium before fix" `Quick test_case_a_medium;
          Alcotest.test_case "researcher clean" `Quick
            test_case_a_no_researcher_findings;
          Alcotest.test_case "witness paths" `Quick test_case_a_witnesses_reach_src;
          qtest prop_witnesses_replay;
          Alcotest.test_case "shipped witnesses replay" `Quick
            test_shipped_witnesses_replay;
          Alcotest.test_case "Low after fix" `Quick test_case_a_fix_reduces_to_low;
          Alcotest.test_case "labels annotated" `Quick test_labels_annotated;
          Alcotest.test_case "exposures" `Quick test_exposures_reported;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "likelihood scenarios" `Quick test_likelihood_scenarios;
          Alcotest.test_case "impact computation" `Quick test_impact_computation;
          qtest prop_fix_never_raises_risk;
          Alcotest.test_case "pseudonym annotations survive" `Quick
            test_disclosure_keeps_pseudonym_risks;
        ] );
      ( "pseudonym risk (section IV-B)",
        [
          Alcotest.test_case "risk transitions" `Quick
            test_study_risk_transitions_exist;
          Alcotest.test_case "violation counts (Fig 4)" `Quick
            test_study_violation_counts;
          Alcotest.test_case "annotations" `Quick
            test_study_risk_transitions_annotated;
          Alcotest.test_case "design gate" `Quick test_study_gate;
          Alcotest.test_case "raw access removes risk" `Quick
            test_no_risk_when_raw_access_allowed;
          Alcotest.test_case "binding validation" `Quick test_binding_validation;
          Alcotest.test_case "one report per read set" `Quick
            test_study_one_report_per_read_set;
          Alcotest.test_case "held field not inferred" `Quick
            test_held_field_not_inferred;
          Alcotest.test_case "bindings do not chain" `Quick
            test_bindings_do_not_chain;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "clean" `Quick test_consistency_clean;
          Alcotest.test_case "gap after fix" `Quick test_consistency_gap_after_fix;
          Alcotest.test_case "write gap" `Quick test_consistency_write_gap;
        ] );
      ("analysis", [ Alcotest.test_case "facade" `Quick test_analysis_facade ]);
    ]
