(* Cone-scoped what-if answers: a Read/Write ACL revocation is
   answered by a walk through the affected store classes' cones —
   the states of the previous exploration with an outgoing edge on an
   affected store — instead of a re-exploration of the edited model.

   The gates here: the ACL sweep's ranked outcomes are identical across
   its job counts and spill budgets of the base LTS; and every what-if
   [Cone] outcome — from the arithmetic pair walk or, where it
   declines, from a cold exploration of the edited model — matches a
   cold run's diff as sorted sets and its worst level, over a base LTS
   built unbudgeted and under a spill budget. *)

module Core = Mdp_core
module Synth = Mdp_scenario.Synthetic
module Lts = Mdp_lts.Lts

let check = Alcotest.check
let bool_ = Alcotest.bool

(* Small enough to cold-run dozens of times, big enough that store
   cones are proper sub-regions of the LTS. *)
let spec_name = "synthetic:6-8-4@2"

(* Same shape, but its profile yields findings (the seed-2 model has
   none), so the what-if diffs it produces are non-empty. *)
let findings_spec_name = "synthetic:6-8-4@3"

(* The smallest synthetic models spill an arena chunk only past ~10k
   states; this one has 9,730 and findings under its profile. *)
let matrix_spec_name = "synthetic:7-10-7@2"

(* The benchmark's sweep model: 3,828 states, 93 cone candidates. *)
let sweep_spec_name = "synthetic:9-12-7@42"

let synth_model name =
  match Synth.spec_of_string name with
  | Some (Ok spec) ->
    let diagram, policy = Synth.model spec in
    (spec, diagram, policy)
  | _ -> Alcotest.fail ("bad spec " ^ name)

let base ?(options = Core.Generate.default_options) name =
  let spec, diagram, policy = synth_model name in
  let profile = Synth.profile spec diagram in
  match Core.Analysis.run_checked ~options ~profile diagram policy with
  | Ok t -> t
  | Error f -> Alcotest.fail (Core.Analysis.failure_message f)

let cold (params : Core.Analysis.params) (inputs : Core.Edit.inputs) =
  match
    Core.Analysis.run_checked ~options:params.Core.Analysis.options
      ~matrix:params.matrix ~model:params.model
      ?profile:inputs.Core.Edit.profile ~bindings:inputs.Core.Edit.bindings
      inputs.Core.Edit.diagram inputs.Core.Edit.policy
  with
  | Ok t -> t
  | Error f -> Alcotest.fail (Core.Analysis.failure_message f)

let packed_peak lts =
  match Core.Plts.mem_stats lts with
  | Some ms -> ms.Lts.ms_total_bytes
  | None -> Alcotest.fail "expected byte accounting"

(* [peak] is the unbudgeted baseline's resident size; 75% of it forces
   the spill tier on. *)
let spill75 peak =
  { Core.Generate.default_options with mem_budget = Some (3 * peak / 4) }

let whatif_base analysis =
  match Core.Whatif.prepare analysis with
  | Ok b -> b
  | Error e -> Alcotest.fail e

(* The ACL-sweep candidates the classifier answers via the cone walk. *)
let census analysis =
  let b = whatif_base analysis in
  let outcomes =
    List.map
      (fun e ->
        match Core.Whatif.eval_edit b e with
        | Ok o -> o
        | Error err -> Alcotest.fail err)
      (Core.Whatif.acl_candidates b)
  in
  let count c =
    List.length
      (List.filter (fun o -> o.Core.Whatif.classification = c) outcomes)
  in
  (outcomes, count)

(* ------------------------------------------------------------------ *)
(* Sweep outcomes are jobs/budget-independent: the sweep's fan-out
   evaluates read-only candidates, and the cone walk reads the base
   LTS's rows, whose content no spill budget moves. *)

let test_sweep_equivalence () =
  let sweep ~jobs analysis =
    let b = whatif_base analysis in
    List.map
      (fun { Core.Whatif.outcome = o; score } ->
        ( Core.Edit.to_string o.edit,
          o.classification,
          o.diff,
          o.worst_after,
          score ))
      (Core.Whatif.sweep ~jobs b (Core.Whatif.acl_candidates b))
  in
  let baseline = base matrix_spec_name in
  let expected = sweep ~jobs:1 baseline in
  check bool_ "the sweep has cone outcomes" true
    (List.exists (fun (_, c, _, _, _) -> c = Core.Whatif.Cone) expected);
  let spilled =
    base ~options:(spill75 (packed_peak baseline.Core.Analysis.lts))
      matrix_spec_name
  in
  check bool_ "spill75: base LTS spilled" true
    (Core.Plts.spill_stats spilled.Core.Analysis.lts <> None);
  List.iter
    (fun (ctx, jobs, t) ->
      List.iter2
        (fun ((edit, _, _, _, _) as want) got ->
          check bool_ (Printf.sprintf "%s %s" ctx edit) true (want = got))
        expected (sweep ~jobs t))
    [
      ("unbudgeted jobs=4", 4, baseline);
      ("spill75 jobs=1", 1, spilled);
      ("spill75 jobs=4", 4, spilled);
    ]

(* One prepared base swept on one domain and on two: the base index is
   built before the fan-out and only read by the concurrent walks. *)
let test_shared_base () =
  let b = whatif_base (base matrix_spec_name) in
  let sweep jobs = Core.Whatif.sweep ~jobs b (Core.Whatif.acl_candidates b) in
  let one = sweep 1 in
  check bool_ "the sweep has cone outcomes" true
    (List.exists
       (fun r -> r.Core.Whatif.outcome.classification = Core.Whatif.Cone)
       one);
  check bool_ "jobs 2 ranks as jobs 1" true (sweep 2 = one);
  check bool_ "jobs 1 again ranks the same" true (sweep 1 = one)

(* ------------------------------------------------------------------ *)
(* The sweep census: most former full-rerun ACL candidates are now
   answered through the cone walk (the PR 10 acceptance shape). *)

let test_census () =
  let outcomes, count = census (base spec_name) in
  let cone = count Core.Whatif.Cone
  and full = count Core.Whatif.Full_rerun in
  check bool_ "cone candidates exist" true (cone > 0);
  check bool_ "at least half of invalidating candidates use the cone path"
    true
    (2 * cone >= cone + full);
  (* Every cone outcome is computed: it carries a diff and a worst
     level even though the sweep ran without [~exact]. *)
  List.iter
    (fun o ->
      if o.Core.Whatif.classification = Core.Whatif.Cone then (
        check bool_ "cone outcome carries a diff" true (o.Core.Whatif.diff <> None);
        check bool_ "cone outcome carries worst_after" true
          (o.Core.Whatif.worst_after <> None)))
    outcomes

(* ------------------------------------------------------------------ *)
(* The timed walk against a cold run. Every [Cone] outcome — pair walk
   or, where that walk declines, the labels of a cold exploration of
   the edited model — must equal the diff and worst level of a cold
   analysis of the edited model. Whole-store Read+Write revokes clear
   more fields than the pair walk's one-word region holds, so they
   exercise the fallback. The seed-2 model has no findings, so the
   seed-3 one checks non-empty diffs. *)

let normalize (d : Core.Risk_diff.t) =
  {
    d with
    Core.Risk_diff.removed = List.sort compare d.removed;
    added = List.sort compare d.added;
    changed = List.sort compare d.changed;
  }

let whole_store_revokes (analysis : Core.Analysis.t) =
  let inputs = Core.Analysis.inputs_of analysis in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (t : Mdp_policy.Policy.grant_tuple) ->
      if
        t.perm = Mdp_policy.Permission.Delete
        || Hashtbl.mem seen (t.actor, t.store)
      then None
      else begin
        Hashtbl.add seen (t.actor, t.store) ();
        Some
          (Core.Edit.Revoke
             {
               subject = Mdp_policy.Acl.Actor_subject t.actor;
               store = t.store;
               fields = None;
               perms = [ Mdp_policy.Permission.Read; Mdp_policy.Permission.Write ];
             })
      end)
    (Mdp_policy.Policy.concrete_grants inputs.Core.Edit.policy
       inputs.Core.Edit.diagram)

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Mdp_obs.Metrics.snapshot ()).Mdp_obs.Metrics.counters)

let with_metrics f =
  let was_enabled = Mdp_obs.Metrics.enabled () in
  Mdp_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Mdp_obs.Metrics.set_enabled was_enabled) f

(* The edited model's disclosure report from a cold run. *)
let cold_report (analysis : Core.Analysis.t) edit =
  let inputs =
    match Core.Edit.apply (Core.Analysis.inputs_of analysis) edit with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  Option.get (cold analysis.Core.Analysis.params inputs).disclosure

(* Checks every [Cone] outcome of the ACL candidates and whole-store
   revokes over [analysis] against [truth] (by default a cold run);
   returns the number of cone outcomes and how many of them had a
   non-empty diff. *)
let check_cone_outcomes ?(truth = cold_report) ctx (analysis : Core.Analysis.t)
    =
  let b = whatif_base analysis in
  let before = Option.get analysis.Core.Analysis.disclosure in
  let cones = ref 0 and moved = ref 0 in
  List.iter
    (fun edit ->
      let o =
        match Core.Whatif.eval_edit b edit with
        | Ok o -> o
        | Error e -> Alcotest.fail e
      in
      if o.Core.Whatif.classification = Core.Whatif.Cone then begin
        incr cones;
        (match o.Core.Whatif.diff with
        | Some { Core.Risk_diff.removed = []; added = []; changed = []; _ }
        | None ->
          ()
        | Some _ -> incr moved);
        let after = truth analysis edit in
        let name = Printf.sprintf "%s %s" ctx (Core.Edit.to_string edit) in
        check bool_
          (Printf.sprintf "%s: diff matches cold" name)
          true
          (Option.map normalize o.Core.Whatif.diff
          = Some (normalize (Core.Risk_diff.diff ~before ~after)));
        check bool_
          (Printf.sprintf "%s: worst level matches cold" name)
          true
          (o.Core.Whatif.worst_after
          = Some (Core.Disclosure_risk.max_level after))
      end)
    (Core.Whatif.acl_candidates b @ whole_store_revokes analysis);
  check bool_ (ctx ^ ": cone candidates exist") true (!cones > 0);
  (!cones, !moved)

let test_walk_matches_cold () =
  with_metrics @@ fun () ->
  let declined_before = counter "whatif/cone_walk_declined" in
  let moved =
    List.fold_left
      (fun acc (ctx, spec, options) ->
        let _, moved = check_cone_outcomes (spec ^ " " ^ ctx) (base ~options spec) in
        acc + moved)
      0
      [
        ("coarse", spec_name, Core.Generate.default_options);
        ( "granular",
          spec_name,
          { Core.Generate.default_options with granular_reads = true } );
        (* granular reads blow this seed past the state guard *)
        ("coarse", findings_spec_name, Core.Generate.default_options);
      ]
  in
  check bool_ "some cone diff is non-empty" true (moved > 0);
  check bool_ "some candidate took the cold-exploration fallback" true
    (counter "whatif/cone_walk_declined" > declined_before)

(* The same check over a base LTS built under a spill budget: the walk
   reads its rows and derives the cones, and the fallback's cold
   exploration runs under the same budget. The cold truth does not
   depend on the base's budget, so it runs unbudgeted. *)
let test_matrix () =
  with_metrics @@ fun () ->
  let baseline = base matrix_spec_name in
  let peak = packed_peak baseline.Core.Analysis.lts in
  let truth _ edit = cold_report baseline edit in
  let ctx = "spill75" in
  let analysis = base ~options:(spill75 peak) matrix_spec_name in
  check bool_ (ctx ^ ": base LTS spilled") true
    (Core.Plts.spill_stats analysis.Core.Analysis.lts <> None);
  let declined_before = counter "whatif/cone_walk_declined" in
  let _, moved = check_cone_outcomes ~truth ctx analysis in
  check bool_ (ctx ^ ": some cone diff is non-empty") true (moved > 0);
  check bool_ (ctx ^ ": the fallback ran under the budget") true
    (counter "whatif/cone_walk_declined" > declined_before)

(* ------------------------------------------------------------------ *)
(* The walk's inputs and its work. The index records every state's
   field holders by propagating label writes along its rows; they must
   equal the decoded states' store and has bits, also over a spilled
   base. *)

let test_holders () =
  let check_holders ctx (analysis : Core.Analysis.t) =
    let u = analysis.Core.Analysis.universe
    and lts = analysis.Core.Analysis.lts in
    let ns = Core.Universe.nstores u and nf = Core.Universe.nfields u in
    let holders =
      Core.Regen.holders
        (Core.Regen.index analysis.Core.Analysis.params.Core.Analysis.options u
           lts)
    in
    check Alcotest.int (ctx ^ ": one word per state and field")
      (Core.Plts.num_states lts * nf) (Array.length holders);
    Core.Plts.iter_states lts (fun q ->
        let cfg : Core.Config.t = Core.Plts.state_data lts q in
        for f = 0 to nf - 1 do
          let want = ref 0 in
          Array.iteri
            (fun s st ->
              if Mdp_prelude.Bitset.get st f then want := !want lor (1 lsl s))
            cfg.Core.Config.stores;
          for a = 0 to Core.Universe.nactors u - 1 do
            if
              Mdp_prelude.Bitset.get
                cfg.Core.Config.privacy.Core.Privacy_state.has
                (Core.Universe.var u ~actor:a ~field:f)
            then want := !want lor (1 lsl (ns + a))
          done;
          if holders.((q * nf) + f) <> !want then
            Alcotest.failf "%s: state %d field %d holders %x, decoded %x" ctx q
              f holders.((q * nf) + f) !want
        done)
  in
  check_holders spec_name (base spec_name);
  let baseline = base matrix_spec_name in
  check_holders matrix_spec_name baseline;
  let spilled =
    base ~options:(spill75 (packed_peak baseline.Core.Analysis.lts))
      matrix_spec_name
  in
  check bool_ "spill75: base LTS spilled" true
    (Core.Plts.spill_stats spilled.Core.Analysis.lts <> None);
  check_holders (matrix_spec_name ^ " spill75") spilled

(* Every cone walk of the benchmark's sweep against the labels of a
   cold exploration of the edited model. Its walks reach more than 512
   pairs, so the pair set (1,024 slots at first, doubled at half load)
   grows mid-walk. The states the walks reach are pinned too: a pair
   lost while the set grows can leave the label set intact, but not
   these counts. *)
let test_walk_labels () =
  with_metrics @@ fun () ->
  let analysis = base sweep_spec_name in
  let options = analysis.Core.Analysis.params.Core.Analysis.options in
  let universe = analysis.Core.Analysis.universe in
  let ix = Core.Regen.index options universe analysis.Core.Analysis.lts in
  let before = Core.Analysis.inputs_of analysis in
  let walks = ref 0 and grown = ref 0 in
  let declined_before = counter "whatif/cone_walk_declined" in
  let olds_before = counter "whatif/cone_old_states"
  and pairs_before = counter "whatif/cone_pair_states" in
  List.iter
    (fun edit ->
      let after =
        match Core.Edit.apply before edit with
        | Ok a -> a
        | Error e -> Alcotest.fail e
      in
      let inv = Core.Edit.classify ~options ~universe ~before ~after in
      match inv.Core.Edit.inv_cone with
      | None -> ()
      | Some changes -> (
        match Core.Regen.make_patch options changes with
        | Error _ -> ()
        | Ok patch ->
          let walk_pairs = counter "whatif/cone_pair_states" in
          let walked = Option.get (Core.Regen.walk ix patch) in
          incr walks;
          if counter "whatif/cone_pair_states" - walk_pairs > 512 then
            incr grown;
          check bool_
            (Core.Edit.to_string edit ^ ": walk labels = cold labels")
            true
            (List.sort_uniq compare walked
            = List.sort_uniq compare
                (Core.Regen.cold_labels options changes.Core.Generate.pc_u))))
    (Core.Whatif.acl_candidates (whatif_base analysis));
  check Alcotest.int "every cone candidate walked" 93 !walks;
  check bool_ "some walk grew its pair set" true (!grown > 0);
  check Alcotest.int "old states reached" 221_480
    (counter "whatif/cone_old_states" - olds_before);
  check Alcotest.int "pairs reached" 132_439
    (counter "whatif/cone_pair_states" - pairs_before);
  check Alcotest.int "no walk declined" declined_before
    (counter "whatif/cone_walk_declined")

(* Why the benchmark's sweep still explores 12 candidates cold: each is
   a read revoke whose flow's guard moved, the one refusal counted. *)
let test_refusals () =
  with_metrics @@ fun () ->
  Mdp_obs.Metrics.reset ();
  let b = whatif_base (base sweep_spec_name) in
  let full_reruns =
    List.filter_map
      (fun edit ->
        match Core.Whatif.eval_edit b edit with
        | Ok { Core.Whatif.classification = Full_rerun; _ } -> Some edit
        | Ok _ -> None
        | Error e -> Alcotest.fail e)
      (Core.Whatif.acl_candidates b)
  in
  check Alcotest.int "12 full reruns" 12 (List.length full_reruns);
  List.iter
    (function
      | Core.Edit.Revoke { perms = [ Mdp_policy.Permission.Read ]; _ } -> ()
      | e -> Alcotest.fail (Core.Edit.to_string e ^ " is not a read revoke"))
    full_reruns;
  let refused =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"whatif/cone_refused/" name)
      (Mdp_obs.Metrics.snapshot ()).Mdp_obs.Metrics.counters
  in
  check
    Alcotest.(list (pair string int))
    "every refusal a moved guard"
    [ ("whatif/cone_refused/guard_moved", 12) ]
    refused

let () =
  Alcotest.run "cone"
    [
      ( "cones",
        [
          Alcotest.test_case "sweep outcomes jobs/budget-independent"
            `Quick test_sweep_equivalence;
          Alcotest.test_case "one prepared base, jobs 1 and 2" `Quick
            test_shared_base;
          Alcotest.test_case "sweep census favours the cone path" `Quick
            test_census;
          Alcotest.test_case "cone outcomes match a cold run" `Quick
            test_walk_matches_cold;
        ] );
      ( "walk",
        [
          Alcotest.test_case "index holders match decoded states" `Quick
            test_holders;
          Alcotest.test_case "walk labels match cold labels" `Quick
            test_walk_labels;
          Alcotest.test_case "refusals on the benchmark sweep" `Quick
            test_refusals;
        ] );
      ( "identity",
        [
          Alcotest.test_case "backend/jobs/budget matrix" `Quick test_matrix;
        ] );
    ]
