(* Regression tests for the fast-path LTS engine: it must reach exactly
   the configurations of the seed engine (test/seed_engine.ml), and
   parallel frontier exploration must produce the exact LTS of the
   one-job run — state numbering, transition order, analysis output.
   Frontiers narrower than 512 states expand on the calling domain
   whatever the job count, so the parallel cases use synthetic models
   whose frontiers are wider, and assert that a parallel round ran. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module Synthetic = Mdp_scenario.Synthetic

let check = Alcotest.check
let int_ = Alcotest.int

let transitions lts =
  let acc = ref [] in
  Core.Plts.iter_transitions lts (fun tr -> acc := tr :: !acc);
  List.rev !acc

let transition_triples lts =
  List.map
    (fun (tr : Core.Plts.transition) ->
      (tr.src, Format.asprintf "%a" Core.Action.pp tr.label, tr.dst))
    (transitions lts)

let triple = Alcotest.(triple int string int)

(* [f ()] with metrics on, and the number of parallel frontier rounds
   it ran (also when it raised). *)
let counting_par_rounds f =
  let was_enabled = Mdp_obs.Metrics.enabled () in
  Mdp_obs.Metrics.set_enabled true;
  let rounds () =
    Option.value ~default:0
      (List.assoc_opt "lts/par_rounds"
         (Mdp_obs.Metrics.snapshot ()).Mdp_obs.Metrics.counters)
  in
  let before = rounds () in
  let result = try Ok (f ()) with e -> Error e in
  let ran = rounds () - before in
  Mdp_obs.Metrics.set_enabled was_enabled;
  (result, ran)

let run_parallel ~options ~jobs u =
  match counting_par_rounds (fun () -> Core.Generate.run ~options ~jobs u) with
  | Ok lts, ran -> (lts, ran)
  | Error e, _ -> raise e

let spec_of name =
  match Synthetic.spec_of_string name with
  | Some (Ok spec) -> spec
  | _ -> Alcotest.failf "bad spec %s" name

(* One-job vs several jobs: the LTSs must be indistinguishable. The raw
   transition list is captured before any analysis — [analyse] annotates
   labels in place. With [~parallel:true] every multi-job run must have
   taken at least one parallel round. *)
let check_engines name ?(parallel = false) ?profile u options =
  let seq = Core.Generate.run ~options ~jobs:1 u in
  let seq_triples = transition_triples seq in
  let report lts profile =
    Format.asprintf "%a" Core.Disclosure_risk.pp_report
      (Core.Disclosure_risk.analyse u lts profile)
  in
  let seq_report = Option.map (report seq) profile in
  List.iter
    (fun jobs ->
      let ctx fmt = Printf.sprintf ("%s jobs=%d " ^^ fmt) name jobs in
      let par, ran = run_parallel ~options ~jobs u in
      if parallel then
        check Alcotest.bool (ctx "ran a parallel round") true (ran > 0);
      check int_ (ctx "states") (Core.Plts.num_states seq)
        (Core.Plts.num_states par);
      check int_ (ctx "transitions")
        (Core.Plts.num_transitions seq)
        (Core.Plts.num_transitions par);
      for i = 0 to Core.Plts.num_states seq - 1 do
        if
          not
            (Core.Config.equal
               (Core.Plts.state_data seq i)
               (Core.Plts.state_data par i))
        then Alcotest.failf "%s: state %d differs" (ctx "") i
      done;
      check (Alcotest.list triple) (ctx "transition list") seq_triples
        (transition_triples par);
      match (profile, seq_report) with
      | Some profile, Some expected ->
        check Alcotest.string (ctx "disclosure report") expected
          (report par profile)
      | _ -> ())
    [ 2; 3; 4 ]

let test_healthcare_default () =
  let u = Core.Universe.make H.diagram H.policy in
  check_engines "healthcare" ~profile:H.profile_case_a u
    Core.Generate.default_options

let test_healthcare_granular () =
  let u = Core.Universe.make H.diagram H.policy in
  check_engines "healthcare-granular" ~profile:H.profile_case_a u
    { Core.Generate.default_options with granular_reads = true }

let test_healthcare_deletes () =
  let u = Core.Universe.make H.diagram H.policy in
  check_engines "healthcare-deletes" u
    { Core.Generate.default_options with potential_deletes = true }

let test_smart_home () =
  let u = Core.Universe.make SH.diagram SH.policy in
  check_engines "smart-home" ~profile:SH.profile u
    Core.Generate.default_options

let synthetic_spec (na, nf, fps) =
  {
    Synthetic.seed = 42;
    nactors = na;
    nfields = nf;
    nstores = 2;
    nservices = 2;
    flows_per_service = fps;
  }

let test_synthetic () =
  List.iter
    (fun dims ->
      let spec = synthetic_spec dims in
      let diagram, policy = Synthetic.model spec in
      let u = Core.Universe.make diagram policy in
      let profile = Synthetic.profile spec diagram in
      let na, nf, fps = dims in
      check_engines
        (Printf.sprintf "synthetic-%d-%d-%d" na nf fps)
        ~profile u Core.Generate.default_options)
    [ (2, 4, 3); (4, 6, 4); (6, 8, 5) ]

(* Frontiers of 512 states and more: the parallel round's expand,
   shard-resolve and numbering phases against the one-job run, under
   each option that changes the step function. *)
let check_parallel name options =
  let spec = spec_of name in
  let diagram, policy = Synthetic.model spec in
  check_engines name ~parallel:true
    ~profile:(Synthetic.profile spec diagram)
    (Core.Universe.make diagram policy)
    options

let test_parallel_default () =
  check_parallel "synthetic:7-10-6" Core.Generate.default_options

let test_parallel_granular () =
  check_parallel "synthetic:6-8-6"
    { Core.Generate.default_options with granular_reads = true }

let test_parallel_deletes () =
  check_parallel "synthetic:6-8-6"
    { Core.Generate.default_options with potential_deletes = true }

(* Against the seed engine: equal state and transition counts, the
   same set of reachable configurations (every library state is one the
   seed reached; with equal counts the sets coincide), and per state the
   seed's successor set — printed label and destination configuration. *)
let check_seed_oracle ?(parallel = false) name u options =
  let seed = Seed_engine.run ~options u in
  List.iter
    (fun jobs ->
      let ctx = Printf.sprintf "%s jobs=%d" name jobs in
      let lts, ran = run_parallel ~options ~jobs u in
      if parallel && jobs > 1 then
        check Alcotest.bool (ctx ^ " ran a parallel round") true (ran > 0);
      Seed_engine.check_lts ctx seed lts)
    [ 1; 4 ]

let test_seed_oracle () =
  let granular = { Core.Generate.default_options with granular_reads = true } in
  let healthcare = Core.Universe.make H.diagram H.policy in
  check_seed_oracle "healthcare default" healthcare Core.Generate.default_options;
  check_seed_oracle "healthcare granular" healthcare granular;
  check_seed_oracle "study granular"
    (Core.Universe.make H.study_diagram H.study_policy)
    granular;
  List.iter
    (fun ((na, nf, fps) as dims) ->
      let diagram, policy = Synthetic.model (synthetic_spec dims) in
      check_seed_oracle
        (Printf.sprintf "synthetic:%d-%d-%d" na nf fps)
        (Core.Universe.make diagram policy)
        Core.Generate.default_options)
    [ (2, 4, 3); (6, 8, 5) ];
  let name = "synthetic:6-8-6" in
  let diagram, policy = Synthetic.model (spec_of name) in
  check_seed_oracle ~parallel:true (name ^ " granular")
    (Core.Universe.make diagram policy)
    granular

(* A universe wider than 63 words, so every state record's wordmap
   spans several groups: the seed's LTS, the same LTS and disclosure
   report at every job count, and byte accounting like any other. *)
let test_wide_universe () =
  let name = "synthetic:30-64-3" in
  let spec = spec_of name in
  let diagram, policy = Synthetic.model spec in
  let u = Core.Universe.make diagram policy in
  check Alcotest.bool "wider than 63 words" true
    (Core.Config.nwords (Core.Config.initial u) > 63);
  check_seed_oracle name u Core.Generate.default_options;
  check_engines name ~profile:(Synthetic.profile spec diagram) u
    Core.Generate.default_options;
  check Alcotest.bool "byte accounting" true
    (Core.Plts.mem_stats (Core.Generate.run u) <> None)

(* The guard must trip inside a parallel round. Ids are BFS order, so
   the rounds are the BFS levels of the finished LTS: a limit of the
   first id of the level after a wide one (>= 512 states) is exceeded
   by the first state that wide round discovers. Both job counts abort
   at the same state. *)
let test_too_many_states () =
  let diagram, policy = Synthetic.model (spec_of "synthetic:7-10-6") in
  let u = Core.Universe.make diagram policy in
  let lts = Core.Generate.run u in
  let n = Core.Plts.num_states lts in
  let level = Array.make n (-1) in
  level.(0) <- 0;
  for s = 0 to n - 1 do
    Core.Plts.iter_successors lts s (fun _ d ->
        if level.(d) < 0 then level.(d) <- level.(s) + 1)
  done;
  let count p = Array.fold_left (fun a x -> if p x then a + 1 else a) 0 level in
  let width l = count (( = ) l) in
  let wide =
    match List.find_opt (fun l -> width l >= 512) (List.init n Fun.id) with
    | Some l -> l
    | None -> Alcotest.fail "no frontier of 512 states"
  in
  let limit = count (fun x -> x <= wide) in
  check Alcotest.bool "a level follows the wide one" true (limit < n);
  let options = { Core.Generate.default_options with max_states = limit } in
  List.iter
    (fun jobs ->
      let ctx = Printf.sprintf "jobs=%d " jobs in
      let run () = Core.Generate.run ~options ~jobs u in
      match counting_par_rounds run with
      | Error (Mdp_lts.Lts.Too_many_states l), ran -> (
        check int_ (ctx ^ "limit carried") limit l;
        if jobs > 1 then
          check Alcotest.bool (ctx ^ "ran a parallel round") true (ran > 0);
        match Mdp_lts.Lts.last_abort_stats () with
        | Some st ->
          check int_ (ctx ^ "aborted at") (limit + 1) st.Mdp_lts.Lts.ab_states
        | None -> Alcotest.fail "no abort stats recorded")
      | _ -> Alcotest.fail "expected Too_many_states")
    [ 1; 4 ]

let () =
  Alcotest.run "perf-engine"
    [
      ( "seq-par equivalence",
        [
          Alcotest.test_case "healthcare default" `Quick test_healthcare_default;
          Alcotest.test_case "healthcare granular" `Quick test_healthcare_granular;
          Alcotest.test_case "healthcare deletes" `Quick test_healthcare_deletes;
          Alcotest.test_case "smart home" `Quick test_smart_home;
          Alcotest.test_case "synthetic" `Quick test_synthetic;
          Alcotest.test_case "parallel rounds default" `Quick
            test_parallel_default;
          Alcotest.test_case "parallel rounds granular" `Quick
            test_parallel_granular;
          Alcotest.test_case "parallel rounds deletes" `Quick
            test_parallel_deletes;
          Alcotest.test_case "max-states guard" `Quick test_too_many_states;
        ] );
      ( "seed oracle",
        [
          Alcotest.test_case "reachable configurations" `Quick test_seed_oracle;
          Alcotest.test_case "wide universe (over 63 words)" `Quick
            test_wide_universe;
        ] );
    ]
