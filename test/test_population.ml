(* The compiled population engine (Risk_plan + equivalence classes +
   streaming aggregation) against the naive per-profile path: same
   seeds, several specs, byte-identical aggregates.
   Plus the hotspot counting fix, the plan's full-report parity, and
   [simulate]'s shared profiles and [classes]' key against oracles. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module Syn = Mdp_scenario.Synthetic

let synthetic name =
  match Syn.spec_of_string name with
  | Some (Ok spec) -> spec
  | _ -> Alcotest.failf "bad spec %s" name

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let granular = { Core.Generate.default_options with granular_reads = true }

let spec ?(seed = 7) ?(agree_probability = 0.7) size =
  { Core.Population.seed; size; westin_mix = Core.Population.default_mix;
    agree_probability }

let render agg = Format.asprintf "%a" Core.Population.pp_aggregate agg

(* Naive vs compiled on one LTS: equal aggregates (structurally and as
   rendered text). *)
let check_engines_on name u lts profiles =
  let naive = Core.Population.analyse u lts profiles in
  let compiled = Core.Population.analyse_compiled u lts profiles in
  check bool_ (name ^ " structural equality") true (naive = compiled);
  check Alcotest.string (name ^ " rendered equality") (render naive)
    (render compiled)

let check_engines name diagram policy options profiles =
  let u = Core.Universe.make diagram policy in
  check_engines_on name u (Core.Generate.run ~options u) profiles

let test_healthcare_default () =
  let profiles = Core.Population.simulate (spec 300) H.diagram in
  check_engines "healthcare" H.diagram H.policy
    Core.Generate.default_options profiles

let test_healthcare_granular () =
  let profiles = Core.Population.simulate (spec 80) H.diagram in
  check_engines "healthcare-granular" H.diagram H.policy granular profiles

let test_healthcare_fixed_policy () =
  let profiles =
    Core.Population.simulate (spec ~seed:99 ~agree_probability:0.4 150)
      H.diagram
  in
  check_engines "healthcare-fixed" H.diagram H.fixed_policy
    Core.Generate.default_options profiles

let test_smart_home () =
  let profiles = Core.Population.simulate (spec ~seed:3 200) SH.diagram in
  check_engines "smart-home" SH.diagram SH.policy
    Core.Generate.default_options profiles

let test_empty_population () =
  check_engines "empty" H.diagram H.policy Core.Generate.default_options []

(* Hand-built profiles (explicit sensitivities, overlapping and
   duplicated) rather than simulated ones. *)
let test_handmade_profiles () =
  let p sens agreed =
    Core.User_profile.make ~sensitivities:sens ~agreed_services:agreed ()
  in
  let profiles =
    [
      p [ (H.diagnosis, 0.9); (H.name, 0.3) ] [];
      p [ (H.diagnosis, 0.9); (H.name, 0.3) ] [];
      p [ (H.diagnosis, 0.9); (H.name, 0.3) ] [ H.medical_service ];
      p [ (H.treatment, 0.6) ] [ H.medical_service; H.research_service ];
      p [] [];
    ]
  in
  check_engines "handmade" H.diagram H.policy granular profiles

(* ------------------------------------------------------------------ *)
(* Equivalence classes *)

let test_classes_partition () =
  let u = Core.Universe.make H.diagram H.policy in
  let profiles = Core.Population.simulate (spec 500) H.diagram in
  let classes = Core.Population.classes u profiles in
  check int_ "members sum to population" 500
    (Mdp_prelude.Listx.sum_by snd classes);
  (* 3 Westin baselines x 2^2 service subsets bound the class count. *)
  check bool_ "at most segments x 2^|services| classes" true
    (List.length classes <= 12);
  check bool_ "dedup is real at this size" true (List.length classes < 500)

let test_classes_distinguish () =
  let u = Core.Universe.make H.diagram H.policy in
  let p sens agreed =
    Core.User_profile.make ~sensitivities:sens ~agreed_services:agreed ()
  in
  let classes =
    Core.Population.classes u
      [
        p [ (H.diagnosis, 0.9) ] [];
        p [ (H.diagnosis, 0.9) ] [];
        p [ (H.diagnosis, 0.8) ] [];
        p [ (H.diagnosis, 0.9) ] [ H.medical_service ];
      ]
  in
  check int_ "three distinct classes" 3 (List.length classes);
  check int_ "first class has both members" 2 (snd (List.hd classes))

(* [simulate] shares one profile per (segment, agreed services). The
   oracle makes the same draws in the same order through the PRNG and
   builds every user's profile afresh. *)
let simulate_oracle (spec : Core.Population.spec) diagram =
  let rng = Mdp_prelude.Prng.create ~seed:spec.seed in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 spec.westin_mix in
  let pick () =
    let x = Mdp_prelude.Prng.float rng total in
    let rec go acc = function
      | [ (w, _) ] -> w
      | (w, p) :: rest -> if x < acc +. p then w else go (acc +. p) rest
      | [] -> assert false
    in
    go 0.0 spec.westin_mix
  in
  let services =
    List.map (fun (s : Mdp_dataflow.Service.t) -> s.id)
      diagram.Mdp_dataflow.Diagram.services
  in
  List.init spec.size (fun _ ->
      let segment = pick () in
      let agreed =
        List.filter
          (fun _ -> Mdp_prelude.Prng.float rng 1.0 < spec.agree_probability)
          services
      in
      Core.Questionnaire.profile diagram segment ~agreed_services:agreed
        ~answers:[])

let oracle_diagrams =
  [ H.diagram; SH.diagram; fst (Syn.model (synthetic "synthetic:6-8-5@1")) ]

let arb_spec =
  let open QCheck in
  let segment =
    Gen.oneofl
      Core.Questionnaire.[ Fundamentalist; Pragmatist; Unconcerned ]
  in
  let gen =
    let open Gen in
    let* seed = int_bound 1_000_000 in
    let* size = int_bound 5_000 in
    let* westin_mix =
      list_size (1 -- 4) (pair segment (float_range 0.01 1.0))
    in
    let+ agree_probability = float_bound_inclusive 1.0 in
    { Core.Population.seed; size; westin_mix; agree_probability }
  in
  let print (s : Core.Population.spec) =
    Printf.sprintf "{seed=%d; size=%d; mix=%d segment(s); agree=%g}" s.seed
      s.size (List.length s.westin_mix) s.agree_probability
  in
  make ~print gen

let prop_simulate_oracle =
  QCheck.Test.make ~name:"simulate equals the per-user oracle" ~count:50
    arb_spec (fun spec ->
      List.for_all
        (fun diagram ->
          Core.Population.simulate spec diagram = simulate_oracle spec diagram)
        oracle_diagrams)

(* A reference for [classes]: the same grouping, keyed by one
   [User_profile.sensitivity] lookup per universe field. *)
let classes_oracle u profiles =
  let svc_pos = Hashtbl.create 8 in
  List.iteri
    (fun i (s : Mdp_dataflow.Service.t) -> Hashtbl.replace svc_pos s.id i)
    (Core.Universe.diagram u).Mdp_dataflow.Diagram.services;
  let key p =
    ( List.init (Core.Universe.nfields u) (fun i ->
          Core.User_profile.sensitivity p (Core.Universe.field_at u i)),
      List.sort_uniq Int.compare
        (List.filter_map (Hashtbl.find_opt svc_pos)
           (Core.User_profile.agreed_services p)) )
  in
  let counts = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun p ->
      let k = key p in
      match Hashtbl.find_opt counts k with
      | Some r -> incr r
      | None ->
        let r = ref 1 in
        Hashtbl.add counts k r;
        order := (p, r) :: !order)
    profiles;
  List.rev_map (fun (p, r) -> (p, !r)) !order

(* Hand-made profiles over universe fields, their anon variants and
   fields outside the universe, agreeing to known, unknown and repeated
   services. Few values, so that classes gather several members. *)
let gen_profile =
  let open QCheck.Gen in
  let u_fields = Mdp_dataflow.Diagram.all_fields H.diagram in
  let pool =
    Array.of_list
      (u_fields
      @ List.map Mdp_dataflow.Field.anon_of u_fields
      @ List.map Mdp_dataflow.Field.make [ "Outside"; "Elsewhere" ])
  in
  let services = [ H.medical_service; H.research_service; "Bogus" ] in
  let* picks =
    list_size (0 -- 6)
      (pair (int_bound (Array.length pool - 1)) (oneofl [ 0.0; 0.3; 0.9 ]))
  in
  let+ agreed = list_size (0 -- 3) (oneofl services) in
  let sensitivities =
    List.fold_left
      (fun acc (i, v) ->
        if List.exists (fun (f, _) -> Mdp_dataflow.Field.equal f pool.(i)) acc
        then acc
        else (pool.(i), v) :: acc)
      [] picks
  in
  Core.User_profile.make ~sensitivities ~agreed_services:agreed ()

let print_profiles ps =
  String.concat "\n" (List.map (Format.asprintf "%a" Core.User_profile.pp) ps)

let arb_profiles =
  QCheck.make ~print:print_profiles QCheck.Gen.(list_size (0 -- 40) gen_profile)

let prop_classes_oracle =
  let u = Core.Universe.make H.diagram H.policy in
  QCheck.Test.make ~name:"classes equal the per-field lookup key" ~count:200
    arb_profiles (fun profiles ->
      Core.Population.classes u profiles = classes_oracle u profiles)

(* Populations that share profiles by reference, as [simulate]'s do: a
   pool of generated profiles plus structural copies of some of them
   (physically distinct, equal keys), drawn with repeats. *)
let arb_shared_population =
  let gen =
    let open QCheck.Gen in
    let* originals = list_size (1 -- 8) gen_profile in
    let* copied = list_size (0 -- 4) (oneofl originals) in
    let copies =
      List.map
        (fun p ->
          Core.User_profile.make
            ~sensitivities:(Core.User_profile.sensitivities p)
            ~agreed_services:(Core.User_profile.agreed_services p)
            ())
        copied
    in
    let pool = Array.of_list (originals @ copies) in
    let+ draws = list_size (0 -- 300) (int_bound (Array.length pool - 1)) in
    List.map (Array.get pool) draws
  in
  QCheck.make ~print:print_profiles gen

(* Counts equal the oracle's, and each representative is the first
   member of its class in input order itself, not a copy of it. *)
let prop_classes_shared =
  let u = Core.Universe.make H.diagram H.policy in
  QCheck.Test.make ~name:"classes of shared profiles equal the oracle"
    ~count:300 arb_shared_population (fun profiles ->
      let got = Core.Population.classes u profiles in
      let expected = classes_oracle u profiles in
      got = expected
      && List.for_all2 (fun (p, _) (q, _) -> p == q) got expected)

(* [classes] computes one key per physically distinct profile of a
   simulated draw, and counts them under [population/class_keys]. *)
let test_class_keys_counter () =
  let u = Core.Universe.make H.diagram H.policy in
  let profiles = Core.Population.simulate (spec ~seed:42 100_000) H.diagram in
  let was_enabled = Mdp_obs.Metrics.enabled () in
  Mdp_obs.Metrics.set_enabled true;
  let counter () =
    Option.value ~default:0
      (List.assoc_opt "population/class_keys"
         (Mdp_obs.Metrics.snapshot ()).Mdp_obs.Metrics.counters)
  in
  let before = counter () in
  let classes =
    Fun.protect
      ~finally:(fun () -> Mdp_obs.Metrics.set_enabled was_enabled)
      (fun () -> Core.Population.classes u profiles)
  in
  check int_ "classes" 12 (List.length classes);
  check int_ "keys computed" 12 (counter () - before)

(* The memory property behind the sharing: a large draw holds one
   profile per (segment, agreed-service subset) at most, keyed by the
   segment even where the mix names it twice. *)
let check_shares_profiles westin_mix =
  let profiles =
    Core.Population.simulate { (spec 50_000) with westin_mix } H.diagram
  in
  let segments = List.length (List.sort_uniq compare (List.map fst westin_mix)) in
  let bound =
    segments * (1 lsl List.length H.diagram.Mdp_dataflow.Diagram.services)
  in
  (* stops collecting one past the bound, so a failure stays cheap *)
  let distinct =
    List.fold_left
      (fun seen p ->
        if List.length seen > bound || List.memq p seen then seen
        else p :: seen)
      [] profiles
  in
  check int_ "users" 50_000 (List.length profiles);
  check bool_
    (Printf.sprintf "%d physically distinct profiles <= %d"
       (List.length distinct) bound)
    true
    (List.length distinct <= bound)

let test_simulate_shares_profiles () =
  check_shares_profiles Core.Population.default_mix;
  check_shares_profiles
    Core.Questionnaire.[ (Pragmatist, 0.3); (Pragmatist, 0.5); (Unconcerned, 0.2) ]

(* ------------------------------------------------------------------ *)
(* σ-delta reaggregation (PR 10): a 1-field sensitivity edit over a
   large population re-evaluates only the classes whose σ actually
   moves, and the re-merged aggregate is byte-identical to a fresh
   compiled run over the edited profiles. *)

let test_reaggregate_single_class () =
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  (* 100k users in five equivalence classes; four of them already sit
     at σ(Diagnosis) = 0.9, so the edit below moves exactly one. *)
  let p sens agreed =
    Core.User_profile.make ~sensitivities:sens ~agreed_services:agreed ()
  in
  let patterns =
    [|
      p [ (H.diagnosis, 0.9); (H.name, 0.3) ] [];
      p [ (H.diagnosis, 0.9); (H.name, 0.3) ] [ H.medical_service ];
      p [ (H.diagnosis, 0.9); (H.treatment, 0.6) ] [ H.research_service ];
      p [ (H.diagnosis, 0.9) ] [ H.medical_service; H.research_service ];
      p [ (H.diagnosis, 0.2); (H.name, 0.7) ] [];
    |]
  in
  let profiles =
    List.init 100_000 (fun i -> patterns.(i mod Array.length patterns))
  in
  let cached = Core.Population.prepare u lts profiles in
  check Alcotest.string "cached aggregate matches compiled"
    (render (Core.Population.analyse_compiled u lts profiles))
    (render (Core.Population.cached_aggregate cached));
  let overrides = [ (H.diagnosis, 0.9) ] in
  let agg, reused, reevaluated =
    Core.Population.reaggregate cached ~overrides
  in
  check int_ "only the moved class re-evaluates" 1 reevaluated;
  check int_ "the other classes are reused" 4 reused;
  (* Ground truth: the same edit applied profile-wide, analysed cold.
     The edited fifth class collapses into none of the others (its Name
     σ differs), so the class structure stays put — but the merge is
     sums-and-maxes either way. *)
  let edit prof =
    Core.User_profile.make
      ~sensitivities:
        (List.map
           (fun (f, v) ->
             if Mdp_dataflow.Field.equal f H.diagnosis then (f, 0.9)
             else (f, v))
           (Core.User_profile.sensitivities prof))
      ~agreed_services:(Core.User_profile.agreed_services prof)
      ()
  in
  let truth =
    Core.Population.analyse_compiled u lts (List.map edit profiles)
  in
  check bool_ "reaggregate structurally equals cold" true (agg = truth);
  check Alcotest.string "reaggregate byte-identical to cold" (render truth)
    (render agg);
  (* Cache immutability: a second pass answers identically, and a
     vacuous override reuses everything. *)
  let agg1, _, _ = Core.Population.reaggregate cached ~overrides in
  check bool_ "second pass agrees" true (agg = agg1);
  let agg0, r0, e0 = Core.Population.reaggregate cached ~overrides:[] in
  check int_ "empty override re-evaluates nothing" 0 e0;
  check int_ "empty override reuses every class" 5 r0;
  check bool_ "empty override is the base aggregate" true
    (agg0 = Core.Population.cached_aggregate cached)

(* ------------------------------------------------------------------ *)
(* Hotspot counting fix: a user with findings at two levels on the same
   (actor, store) used to increment [affected] twice. *)

let test_hotspot_counts_user_once () =
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run ~options:granular u in
  (* No agreed services, very different sensitivities: the granular EHR
     reads of one actor carry findings at different levels. *)
  let profile =
    Core.User_profile.make
      ~sensitivities:[ (H.diagnosis, 0.9); (H.name, 0.2) ]
      ~agreed_services:[] ()
  in
  let report = Core.Disclosure_risk.analyse u lts profile in
  let distinct_levels_on_one_access =
    Mdp_prelude.Listx.dedup
      (List.filter_map
         (fun (f : Core.Disclosure_risk.finding) ->
           if f.action.Core.Action.actor = "Administrator"
              && f.action.Core.Action.store = Some "EHR"
           then Some f.level
           else None)
         report.findings)
  in
  check bool_ "scenario has two levels on the same access" true
    (List.length distinct_levels_on_one_access >= 2);
  let agg = Core.Population.analyse u lts [ profile ] in
  List.iter
    (fun (h : Core.Population.hotspot) ->
      check int_
        (Printf.sprintf "hotspot %s/%s counts the single user once" h.actor
           (Option.value h.store ~default:"-"))
        1 h.affected)
    agg.hotspots;
  let compiled = Core.Population.analyse_compiled u lts [ profile ] in
  check bool_ "compiled agrees" true (agg = compiled)

(* ------------------------------------------------------------------ *)
(* Full-report parity: Risk_plan.analyse is a drop-in replacement for
   Disclosure_risk.analyse, annotations included. *)

(* Every interned label of [lts] as [Risk_plan.annotate] maps it, and
   as the naive per-label assessment annotates it (a read gets
   [Risk_matrix.assess] of its impact and likelihood). *)
let annotated_labels u lts plan profile =
  let annotate = Core.Risk_plan.annotate plan profile in
  let naive (label : Core.Action.t) =
    match label.kind with
    | Core.Action.Read ->
      Core.Action.with_risk label
        (Core.Risk_matrix.assess (Core.Risk_plan.matrix plan)
           ~impact:(Core.Disclosure_risk.transition_impact u profile label)
           ~likelihood:
             (Core.Disclosure_risk.transition_likelihood u profile
                (Core.Risk_plan.model plan) label))
    | _ -> label
  in
  let pp = List.map (Format.asprintf "%a" Core.Action.pp) in
  let labels = Array.to_list (Option.get (Core.Plts.interned_labels lts)) in
  (pp (List.map naive labels), pp (List.map annotate labels))

let check_plan_parity_on name u lts profile =
  let naive = Core.Disclosure_risk.analyse u lts profile in
  let plan = Core.Risk_plan.compile u lts in
  let compiled = Core.Risk_plan.analyse plan profile in
  check Alcotest.string
    (name ^ " report")
    (Format.asprintf "%a" Core.Disclosure_risk.pp_report naive)
    (Format.asprintf "%a" Core.Disclosure_risk.pp_report compiled);
  check bool_ (name ^ " reports structurally equal") true (naive = compiled);
  let naive_labels, plan_labels = annotated_labels u lts plan profile in
  check
    Alcotest.(list string)
    (name ^ " annotated labels")
    naive_labels plan_labels;
  (* Witnesses come from each path's BFS tree; spot-check their
     lengths. *)
  List.iter2
    (fun (a : Core.Disclosure_risk.finding)
         (b : Core.Disclosure_risk.finding) ->
      check int_ (name ^ " witness lengths")
        (List.length (Core.Disclosure_risk.witness a))
        (List.length (Core.Disclosure_risk.witness b)))
    naive.findings compiled.findings

let check_plan_parity name diagram policy options profile =
  let u = Core.Universe.make diagram policy in
  check_plan_parity_on name u (Core.Generate.run ~options u) profile

(* An LTS explored under a spill budget (75% of its unbudgeted peak):
   the plan reads its edge rows as it reads an in-RAM LTS's, so both
   the population aggregate and the full report match the naive
   engine's. The smallest synthetic model that spills an arena chunk. *)
let test_spilled_lts () =
  let sspec = synthetic "synthetic:7-10-7@2" in
  let diagram, policy = Syn.model sspec in
  let u = Core.Universe.make diagram policy in
  let peak =
    match Core.Plts.mem_stats (Core.Generate.run u) with
    | Some ms -> ms.Mdp_lts.Lts.ms_total_bytes
    | None -> Alcotest.fail "expected byte accounting"
  in
  let options =
    { Core.Generate.default_options with mem_budget = Some (3 * peak / 4) }
  in
  let lts = Core.Generate.run ~options u in
  check bool_ "LTS spilled" true (Core.Plts.spill_stats lts <> None);
  let profile = Syn.profile sspec diagram in
  let agreed services =
    Core.User_profile.make ~sensitivities:[] ~agreed_services:services ()
  in
  check_engines_on "spilled" u lts
    [ profile; agreed [ "Service0" ]; agreed [] ];
  check_plan_parity_on "spilled" u lts profile;
  Core.Plts.drop_spill lts

let test_plan_parity_healthcare () =
  check_plan_parity "healthcare" H.diagram H.policy
    Core.Generate.default_options H.profile_case_a

let test_plan_parity_granular () =
  check_plan_parity "healthcare-granular" H.diagram H.policy granular
    H.profile_case_a

let test_plan_parity_smart_home () =
  check_plan_parity "smart-home" SH.diagram SH.policy
    Core.Generate.default_options SH.profile

(* ------------------------------------------------------------------ *)
(* Per-label plan against the oracle over generated models: several
   profiles, analysed in turn on one plan. *)

(* Three profiles: the generator's, a reseeded one, and the reseeded
   sensitivities with no agreed service (every read rogue). *)
let profiles_for spec diagram =
  let p1 = Syn.profile spec diagram in
  let p2 = Syn.profile { spec with seed = spec.Syn.seed + 100 } diagram in
  let p3 =
    Core.User_profile.make ~sensitivities:(Core.User_profile.sensitivities p2)
      ~agreed_services:[] ()
  in
  [ p1; p2; p3 ]

(* [summary] agrees with the report: worst level, and per slot the
   worst finding on that (actor, store). *)
let check_summary name plan profile (report : Core.Disclosure_risk.report) =
  let s = Core.Risk_plan.summary plan profile in
  check bool_ (name ^ " summary worst") true
    (Core.Level.equal s.worst (Core.Disclosure_risk.max_level report));
  Array.iteri
    (fun i (actor, store) ->
      let expected =
        List.fold_left
          (fun acc (f : Core.Disclosure_risk.finding) ->
            if f.action.actor = actor && f.action.store = store then
              Core.Level.max acc f.level
            else acc)
          Core.Level.None_ report.findings
      in
      check bool_ (name ^ " slot level") true
        (Core.Level.equal expected s.slot_levels.(i)))
    (Core.Risk_plan.slots plan)

let test_plan_differential () =
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let model = Printf.sprintf "synthetic:%s@%d" shape seed in
          let spec = synthetic model in
          let diagram, policy = Syn.model spec in
          let u = Core.Universe.make diagram policy in
          let profiles = profiles_for spec diagram in
          let lts = Core.Generate.run u in
          let oracle =
            List.map (fun profile -> Core.Disclosure_risk.analyse u lts profile)
              profiles
          in
          let plan = Core.Risk_plan.compile u lts in
          List.iteri
            (fun i profile ->
              let name = Printf.sprintf "%s profile %d" model i in
              let report = List.nth oracle i in
              let compiled = Core.Risk_plan.analyse plan profile in
              check bool_ (name ^ " report") true (report = compiled);
              let naive_labels, plan_labels =
                annotated_labels u lts plan profile
              in
              check bool_ (name ^ " labels") true (naive_labels = plan_labels);
              check_summary name plan profile compiled;
              let fresh = Core.Risk_plan.compile u (Core.Generate.run u) in
              check bool_ (name ^ " reused plan = fresh plan") true
                (compiled = Core.Risk_plan.analyse fresh profile))
            profiles)
        (* seed 1 of 8-10-6 alone costs the oracle (one BFS per
           finding) ~20 s *)
        [ 2; 3; 4 ])
    [ "2-4-3"; "6-8-5"; "8-10-6" ]

(* The likelihood combinator itself: the exact sum below 1 (same term
   order as the engines) and exactly 1 once the scenario probabilities
   sum past it. *)
let test_combine_semantics () =
  let combine a mn r =
    Core.Disclosure_risk.combine_scenarios ~accidental:a ~maintenance:mn
      ~rogue:r
  in
  check (Alcotest.float 0.) "sum below 1 is exact" (0.05 +. 0.02 +. 0.01)
    (combine 0.05 0.02 0.01);
  check (Alcotest.float 0.) "sum past 1 saturates" 1.0 (combine 0.6 0.5 0.4)

(* Property: for models swept across the sum = 1 boundary — including
   ones where every read saturates — the naive and compiled engines
   produce byte-identical reports, and every likelihood stays in
   [0, 1]. *)
let arb_model =
  let open QCheck in
  let print (m : Core.Disclosure_risk.likelihood_model) =
    Printf.sprintf "{a=%g; m=%g; r=%g}" m.accidental_access
      m.maintenance_exposure m.rogue_service
  in
  let gen =
    let open Gen in
    (* Each scenario in [0, 0.6]: the sum ranges over [0, 1.8], so the
       sweep crosses 1.0 from both sides. *)
    let p = float_bound_inclusive 0.6 in
    let* accidental_access = p in
    let* maintenance_exposure = p in
    let+ rogue_service = p in
    { Core.Disclosure_risk.accidental_access; maintenance_exposure;
      rogue_service }
  in
  make ~print gen

let prop_extreme_models_parity =
  QCheck.Test.make ~name:"extreme models keep engines byte-identical"
    ~count:20 arb_model (fun model ->
      let u = Core.Universe.make H.diagram H.policy in
      let naive_lts = Core.Generate.run u in
      let naive = Core.Disclosure_risk.analyse ~model u naive_lts
          H.profile_case_a in
      let plan_lts = Core.Generate.run u in
      let plan = Core.Risk_plan.compile ~model u plan_lts in
      let compiled = Core.Risk_plan.analyse plan H.profile_case_a in
      let in_range (f : Core.Disclosure_risk.finding) =
        f.likelihood >= 0.0 && f.likelihood <= 1.0
      in
      naive = compiled
      && Format.asprintf "%a" Core.Disclosure_risk.pp_report naive
         = Format.asprintf "%a" Core.Disclosure_risk.pp_report compiled
      && List.for_all in_range naive.findings)

let () =
  Alcotest.run "population"
    [
      ( "compiled-vs-naive",
        [
          Alcotest.test_case "healthcare default" `Quick
            test_healthcare_default;
          Alcotest.test_case "healthcare granular" `Quick
            test_healthcare_granular;
          Alcotest.test_case "healthcare fixed policy" `Quick
            test_healthcare_fixed_policy;
          Alcotest.test_case "smart home" `Quick test_smart_home;
          Alcotest.test_case "empty population" `Quick test_empty_population;
          Alcotest.test_case "handmade profiles" `Quick
            test_handmade_profiles;
          Alcotest.test_case "spilled LTS" `Quick test_spilled_lts;
        ] );
      ( "classes",
        [
          Alcotest.test_case "partition" `Quick test_classes_partition;
          Alcotest.test_case "distinguish" `Quick test_classes_distinguish;
          QCheck_alcotest.to_alcotest prop_classes_oracle;
          QCheck_alcotest.to_alcotest prop_classes_shared;
          Alcotest.test_case "one key per distinct profile" `Quick
            test_class_keys_counter;
        ] );
      ( "simulate",
        [
          QCheck_alcotest.to_alcotest prop_simulate_oracle;
          Alcotest.test_case "shared profiles" `Quick
            test_simulate_shares_profiles;
        ] );
      ( "reaggregate",
        [
          Alcotest.test_case "1-field edit re-evaluates one class" `Quick
            test_reaggregate_single_class;
        ] );
      ( "hotspots",
        [
          Alcotest.test_case "user counted once" `Quick
            test_hotspot_counts_user_once;
        ] );
      ( "plan-parity",
        [
          Alcotest.test_case "healthcare" `Quick test_plan_parity_healthcare;
          Alcotest.test_case "granular" `Quick test_plan_parity_granular;
          Alcotest.test_case "smart home" `Quick test_plan_parity_smart_home;
          Alcotest.test_case "synthetic differential" `Quick
            test_plan_differential;
        ] );
      ( "likelihood-clamp",
        [
          Alcotest.test_case "combine semantics" `Quick
            test_combine_semantics;
          QCheck_alcotest.to_alcotest prop_extreme_models_parity;
        ] );
    ]
