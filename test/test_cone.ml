(* Cone-scoped incremental re-exploration (PR 10): a Read/Write ACL
   revocation confined to one store re-explores only the affected
   store-class fragment — seeded from the cone sources recorded during
   the previous exploration — and merges back with stable numbering.

   The gates here: the recorded cone summaries are identical across
   job counts and spill budgets; an incremental run over a
   cone-eligible edit is byte-identical (report, summary and cone
   summaries) to a cold run of the edited model under every one of
   those configurations; and every what-if [Cone] outcome — from the
   arithmetic pair walk or, where it declines, from the exact rebuild —
   matches a cold run's diff as sorted sets and its worst level. *)

module Core = Mdp_core
module Synth = Mdp_scenario.Synthetic
module Lts = Mdp_lts.Lts

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* Small enough to cold-run dozens of times, big enough that store
   cones are proper sub-regions of the LTS. *)
let spec_name = "synthetic:6-8-4@2"

(* Same shape, but its profile yields findings (the seed-2 model has
   none), so the what-if diffs it produces are non-empty. *)
let findings_spec_name = "synthetic:6-8-4@3"

let synth_model name =
  match Synth.spec_of_string name with
  | Some (Ok spec) ->
    let diagram, policy = Synth.model spec in
    (spec, diagram, policy)
  | _ -> Alcotest.fail ("bad spec " ^ name)

let base ?(options = Core.Generate.default_options) ?(jobs = 1) name =
  let spec, diagram, policy = synth_model name in
  let profile = Synth.profile spec diagram in
  match Core.Analysis.run_checked ~options ~profile ~jobs diagram policy with
  | Ok t -> t
  | Error f -> Alcotest.fail (Core.Analysis.failure_message f)

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

let cone_stats lts =
  match Core.Plts.store_cone_stats lts with
  | Some a -> Array.to_list a
  | None -> Alcotest.fail "exploration recorded no store cones"

let packed_peak lts =
  match Core.Plts.mem_stats lts with
  | Some ms -> ms.Lts.ms_total_bytes
  | None -> Alcotest.fail "expected byte accounting"

(* The budget matrix. [peak] is the unbudgeted baseline's resident
   size; 75% of it forces the spill tier on. *)
let configs peak =
  [
    ("unbudgeted", Core.Generate.default_options);
    ( "spill75",
      { Core.Generate.default_options with mem_budget = Some (3 * peak / 4) }
    );
  ]

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
(* Cone summaries are jobs/budget-independent. *)

let test_cone_stats_equivalence () =
  let baseline = base spec_name in
  let expected = cone_stats baseline.Core.Analysis.lts in
  check bool_ "cones are non-trivial" true
    (List.exists (fun (s, _) -> s > 0) expected);
  let peak = packed_peak baseline.Core.Analysis.lts in
  List.iter
    (fun (cname, options) ->
      List.iter
        (fun jobs ->
          let t = base ~options ~jobs spec_name in
          check bool_
            (Printf.sprintf "%s jobs=%d cone stats identical" cname jobs)
            true
            (cone_stats t.Core.Analysis.lts = expected))
        [ 1; 4 ])
    (configs peak)

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
(* Byte-identity of incremental runs over cone-eligible edits, across
   the full backend/jobs/budget matrix, plus diff-vs-truth for the
   what-if outcome. *)

let normalize (d : Core.Risk_diff.t) =
  {
    d with
    Core.Risk_diff.removed = List.sort compare d.removed;
    added = List.sort compare d.added;
    changed = List.sort compare d.changed;
  }

let check_candidates ctx analysis candidates =
  let b = whatif_base analysis in
  let before = Option.get analysis.Core.Analysis.disclosure in
  List.iter
    (fun edit ->
      let o =
        match Core.Whatif.eval_edit b edit with
        | Ok o -> o
        | Error e -> Alcotest.fail e
      in
      let name = Core.Edit.to_string edit in
      check bool_
        (Printf.sprintf "%s: %s classified cone" ctx name)
        true
        (o.Core.Whatif.classification = Core.Whatif.Cone);
      let incr = Core.Analysis.run_incremental ~previous:analysis [ edit ] in
      let c = cold incr.Core.Analysis.params (Core.Analysis.inputs_of incr) in
      check string_
        (Printf.sprintf "%s: %s byte-identical to cold" ctx name)
        (render c) (render incr);
      check bool_
        (Printf.sprintf "%s: %s cone stats match cold" ctx name)
        true
        (cone_stats incr.Core.Analysis.lts = cone_stats c.Core.Analysis.lts);
      let after = Option.get incr.Core.Analysis.disclosure in
      let truth = Core.Risk_diff.diff ~before ~after in
      check bool_
        (Printf.sprintf "%s: %s diff matches truth" ctx name)
        true
        (Option.map normalize o.Core.Whatif.diff = Some (normalize truth));
      check bool_
        (Printf.sprintf "%s: %s worst level matches" ctx name)
        true
        (o.Core.Whatif.worst_after
        = Some (Core.Disclosure_risk.max_level after)))
    candidates

let cone_candidates analysis =
  let outcomes, _ = census analysis in
  List.filter_map
    (fun o ->
      if o.Core.Whatif.classification = Core.Whatif.Cone then
        Some o.Core.Whatif.edit
      else None)
    outcomes

(* ------------------------------------------------------------------ *)
(* The timed walk against a cold run. Every [Cone] outcome — pair walk
   or, where that walk declines, the labels of the exact rebuild — must
   equal the diff and worst level of a cold analysis of the edited
   model. Whole-store Read+Write revokes clear more fields than the
   pair walk's one-word region holds, so they exercise the fallback.
   The seed-2 model has no findings, so the seed-3 one checks
   non-empty diffs. *)

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

let test_walk_matches_cold () =
  let was_enabled = Mdp_obs.Metrics.enabled () in
  Mdp_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Mdp_obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let declined_before = counter "whatif/cone_walk_declined" in
  let moved = ref 0 in
  List.iter
    (fun (ctx, spec, options) ->
      let ctx = spec ^ " " ^ ctx in
      let analysis = base ~options spec in
      let b = whatif_base analysis in
      let before = Option.get analysis.Core.Analysis.disclosure in
      let cones = ref 0 in
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
            let inputs =
              match Core.Edit.apply (Core.Analysis.inputs_of analysis) edit with
              | Ok i -> i
              | Error e -> Alcotest.fail e
            in
            let after =
              Option.get (cold analysis.Core.Analysis.params inputs).disclosure
            in
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
      check bool_ (ctx ^ ": cone candidates exist") true (!cones > 0))
    [
      ("coarse", spec_name, Core.Generate.default_options);
      ( "granular",
        spec_name,
        { Core.Generate.default_options with granular_reads = true } );
      (* granular reads blow this seed past the state guard *)
      ("coarse", findings_spec_name, Core.Generate.default_options);
    ];
  check bool_ "some cone diff is non-empty" true (!moved > 0);
  check bool_ "some candidate took the rebuild fallback" true
    (counter "whatif/cone_walk_declined" > declined_before)

(* Every cone candidate, default configuration. *)
let test_byte_identity_default () =
  let analysis = base spec_name in
  let candidates = cone_candidates analysis in
  check bool_ "enough candidates to be meaningful" true
    (List.length candidates >= 10);
  check_candidates "unbudgeted jobs=1" analysis candidates

(* A slice of the candidates across the rest of the matrix — each
   configuration re-bases so the previous LTS being patched was itself
   built under that budget. *)
let test_byte_identity_matrix () =
  let baseline = base spec_name in
  let peak = packed_peak baseline.Core.Analysis.lts in
  let slice =
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take 4 (cone_candidates baseline)
  in
  check int_ "slice size" 4 (List.length slice);
  List.iter
    (fun (cname, options) ->
      List.iter
        (fun jobs ->
          let analysis = base ~options ~jobs spec_name in
          check_candidates
            (Printf.sprintf "%s jobs=%d" cname jobs)
            analysis slice)
        [ 1; 4 ])
    (configs peak)

let () =
  Alcotest.run "cone"
    [
      ( "cones",
        [
          Alcotest.test_case "cone stats backend/jobs/budget-independent"
            `Quick test_cone_stats_equivalence;
          Alcotest.test_case "sweep census favours the cone path" `Quick
            test_census;
          Alcotest.test_case "cone outcomes match a cold run" `Quick
            test_walk_matches_cold;
        ] );
      ( "identity",
        [
          Alcotest.test_case "all cone candidates byte-identical (default)"
            `Quick test_byte_identity_default;
          Alcotest.test_case "backend/jobs/budget matrix" `Quick
            test_byte_identity_matrix;
        ] );
    ]
