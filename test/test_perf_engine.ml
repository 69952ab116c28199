(* Regression tests for the fast-path LTS engine: it must reach exactly
   the configurations of the seed engine (test/seed_engine.ml), and a
   second exploration of a universe must reproduce the first — state
   numbering, transition order, analysis output. The wide cases use
   synthetic models with frontiers of 512 states and more. *)

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

let spec_of name =
  match Synthetic.spec_of_string name with
  | Some (Ok spec) -> spec
  | _ -> Alcotest.failf "bad spec %s" name

(* States per BFS level. Ids are discovery order, so the levels are the
   exploration's frontier rounds. *)
let level_widths lts =
  let n = Core.Plts.num_states lts in
  let level = Array.make n (-1) in
  level.(0) <- 0;
  for s = 0 to n - 1 do
    Core.Plts.iter_successors lts s (fun _ d ->
        if level.(d) < 0 then level.(d) <- level.(s) + 1)
  done;
  let widths = Array.make (Array.fold_left max 0 level + 1) 0 in
  Array.iter (fun l -> widths.(l) <- widths.(l) + 1) level;
  widths

(* First vs second exploration: the LTSs must be indistinguishable. *)
let check_engines name ?profile u options =
  let first = Core.Generate.run ~options u in
  let second = Core.Generate.run ~options u in
  let report lts profile =
    Format.asprintf "%a" Core.Disclosure_risk.pp_report
      (Core.Disclosure_risk.analyse u lts profile)
  in
  let ctx what = Printf.sprintf "%s second run %s" name what in
  check int_ (ctx "states") (Core.Plts.num_states first)
    (Core.Plts.num_states second);
  check int_ (ctx "transitions")
    (Core.Plts.num_transitions first)
    (Core.Plts.num_transitions second);
  for i = 0 to Core.Plts.num_states first - 1 do
    if
      not
        (Core.Config.equal
           (Core.Plts.state_data first i)
           (Core.Plts.state_data second i))
    then Alcotest.failf "%s: state %d differs" (ctx "") i
  done;
  check (Alcotest.list triple) (ctx "transition list")
    (transition_triples first) (transition_triples second);
  Option.iter
    (fun profile ->
      check Alcotest.string (ctx "disclosure report") (report first profile)
        (report second profile))
    profile

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

(* Frontiers of 512 states and more, under each option that changes
   the step function. *)
let check_wide name options =
  let spec = spec_of name in
  let diagram, policy = Synthetic.model spec in
  let u = Core.Universe.make diagram policy in
  check Alcotest.bool (name ^ " has a frontier of 512 states") true
    (Array.exists (fun w -> w >= 512)
       (level_widths (Core.Generate.run ~options u)));
  check_engines name ~profile:(Synthetic.profile spec diagram) u options

let test_wide_default () =
  check_wide "synthetic:7-10-6" Core.Generate.default_options

let test_wide_granular () =
  check_wide "synthetic:6-8-6"
    { Core.Generate.default_options with granular_reads = true }

let test_wide_deletes () =
  check_wide "synthetic:6-8-6"
    { Core.Generate.default_options with potential_deletes = true }

(* Against the seed engine: equal state and transition counts, the
   seed's state numbering, and per state the seed's row — printed label
   and destination id, in order. *)
let check_seed_oracle name u options =
  Seed_engine.check_lts name
    (Seed_engine.run ~options u)
    (Core.Generate.run ~options u)

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
  check_seed_oracle (name ^ " granular")
    (Core.Universe.make diagram policy)
    granular

(* Every option that changes the step function, each against the seed
   engine on small models (under [Data_driven] the state space grows
   fast: synthetic:6-8-6@3 already exceeds 100k states). *)
let step_options u =
  let d = Core.Generate.default_options and fo = Core.Generate.flow_only in
  let first_service =
    match (Core.Universe.diagram u).Mdp_dataflow.Diagram.services with
    | s :: _ -> [ s.Mdp_dataflow.Service.id ]
    | [] -> []
  in
  [
    ("deletes", { d with potential_deletes = true });
    ("data-driven", { d with ordering = Core.Generate.Data_driven });
    ("flow-only", fo);
    ("flow-only data-driven", { fo with ordering = Core.Generate.Data_driven });
    ("no potential reads", { d with potential_reads = false });
    ("unenforced", { d with enforce_policy = false });
    ("granular deletes", { d with granular_reads = true; potential_deletes = true });
    ("one service", { d with services = Some first_service });
  ]

(* Every shipped model grants Delete to at most one actor per store;
   a second EHR deleter fixes the order of a store's delete
   transitions (the seed's: deleters in reverse). *)
let two_deleters () =
  Core.Universe.make H.diagram
    (Mdp_policy.Policy.grant H.policy
       (Mdp_policy.Acl.allow (Mdp_policy.Acl.Actor_subject "Doctor")
          ~store:"EHR" [ Mdp_policy.Permission.Delete ]))

(* Fields 62 and 63 sit in different 63-field groups: A collects and
   stores all 64 fields, B may read and delete just those two, and A
   may delete too. A coarse read spans both groups, and granular reads
   cross the boundary highest first. *)
let group_boundary () =
  let open Mdp_dataflow in
  let fields = List.init 64 (fun i -> Field.make (Printf.sprintf "F%d" i)) in
  let diagram =
    Diagram.make_exn
      ~actors:[ Actor.make "A"; Actor.make "B" ]
      ~datastores:
        [ Datastore.make ~id:"S" ~schemas:[ Schema.make ~id:"Record" ~fields ] () ]
      ~services:
        [
          Service.make ~id:"Intake"
            ~flows:
              [
                Flow.make ~order:1 ~src:Flow.User ~dst:(Flow.Actor "A")
                  ~fields ~purpose:"collect";
                Flow.make ~order:2 ~src:(Flow.Actor "A") ~dst:(Flow.Store "S")
                  ~fields ~purpose:"store";
              ];
        ]
  in
  let module Acl = Mdp_policy.Acl in
  let module P = Mdp_policy.Permission in
  Core.Universe.make diagram
    (Mdp_policy.Policy.make
       [
         Acl.allow (Acl.Actor_subject "A") ~store:"S" [ P.Write; P.Delete ];
         Acl.allow (Acl.Actor_subject "B") ~store:"S"
           ~fields:[ List.nth fields 62; List.nth fields 63 ]
           [ P.Read; P.Delete ];
       ])

(* [f name u options] for every step option on each of these models. *)
let iter_step_options f =
  let synthetic name =
    let diagram, policy = Synthetic.model (spec_of name) in
    (name, Core.Universe.make diagram policy)
  in
  List.iter
    (fun (model, u) ->
      List.iter
        (fun (what, options) -> f (Printf.sprintf "%s %s" model what) u options)
        (step_options u))
    [
      synthetic "synthetic:4-6-4";
      synthetic "synthetic:3-6-4@3";
      ("healthcare", Core.Universe.make H.diagram H.policy);
      ("healthcare two deleters", two_deleters ());
      ("group boundary", group_boundary ());
    ]

let test_seed_options () = iter_step_options check_seed_oracle

(* [Plts.witness_tree] against a queue BFS written here: the BFS must
   visit ids 0 .. n-1 in order (ids are discovery order), and its
   first-discovery parents and label ids must equal the tree's. *)
let check_witness_tree name u options =
  let lts = Core.Generate.run ~options u in
  let n = Core.Plts.num_states lts in
  let parent = Array.make n (-1) and via = Array.make n (-1) in
  let seen = Array.make n false and q = Queue.create () and visits = ref 0 in
  seen.(0) <- true;
  Queue.push 0 q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    if s <> !visits then
      Alcotest.failf "%s: the BFS visits state %d at position %d" name s
        !visits;
    incr visits;
    Core.Plts.iter_successors_lid lts s (fun lid d ->
        if not seen.(d) then begin
          seen.(d) <- true;
          parent.(d) <- s;
          via.(d) <- lid;
          Queue.push d q
        end)
  done;
  check int_ (name ^ ": the BFS visits every state") n !visits;
  let tree_parent, tree_via = Core.Plts.witness_tree lts in
  check (Alcotest.array int_) (name ^ ": parents") parent tree_parent;
  check (Alcotest.array int_) (name ^ ": label ids") via tree_via

let test_witness_tree () = iter_step_options check_witness_tree

(* A universe wider than 63 words, so every state record's wordmap
   spans several groups: the seed's LTS, the same LTS and disclosure
   report on a second run, and byte accounting like any other. *)
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

(* Reads over more than one 63-field group: synthetic:30-64-3 (64
   fields) under every step option but the granular ones, which exceed
   100k states there. *)
let test_wide_fields () =
  let name = "synthetic:30-64-3" in
  let diagram, policy = Synthetic.model (spec_of name) in
  let u = Core.Universe.make diagram policy in
  check Alcotest.bool "wider than 63 fields" true
    (Core.Universe.nfields u > 63);
  List.iter
    (fun (what, (options : Core.Generate.options)) ->
      if not options.granular_reads then
        check_seed_oracle (Printf.sprintf "%s %s" name what) u options)
    (step_options u)

(* Healthcare plus a 60-field store no flow touches (70 fields): the
   store stays empty, so the LTS is healthcare's, but every potential
   read spans two field groups. *)
let test_padded_healthcare () =
  let d = H.diagram in
  let pad =
    Mdp_dataflow.Datastore.make ~id:"Padding"
      ~schemas:
        [
          Mdp_dataflow.Schema.make ~id:"PaddingRecord"
            ~fields:
              (List.init 60 (fun i ->
                   Mdp_dataflow.Field.make (Printf.sprintf "Pad%d" i)));
        ]
      ()
  in
  let diagram =
    Mdp_dataflow.Diagram.make_exn ~actors:d.actors
      ~datastores:(d.datastores @ [ pad ])
      ~services:d.services
  in
  let u = Core.Universe.make diagram H.policy in
  check int_ "70 fields" 70 (Core.Universe.nfields u);
  List.iter
    (fun (what, options) ->
      check_seed_oracle ("padded healthcare " ^ what) u options)
    (step_options u);
  let counts options =
    let lts = Core.Generate.run ~options u in
    (Core.Plts.num_states lts, Core.Plts.num_transitions lts)
  in
  let pair = Alcotest.(pair int int) in
  check pair "default options" (46, 112) (counts Core.Generate.default_options);
  check pair "granular reads" (1_082, 6_518)
    (counts { Core.Generate.default_options with granular_reads = true })

(* The guard must trip inside a wide round. Ids are BFS order, so the
   rounds are the BFS levels of the finished LTS: a limit of the first
   id of the level after a wide one (>= 512 states) is exceeded by the
   first state that wide round discovers. *)
let test_too_many_states () =
  let diagram, policy = Synthetic.model (spec_of "synthetic:7-10-6") in
  let u = Core.Universe.make diagram policy in
  let lts = Core.Generate.run u in
  let n = Core.Plts.num_states lts in
  let widths = level_widths lts in
  let wide =
    match Array.find_index (fun w -> w >= 512) widths with
    | Some l -> l
    | None -> Alcotest.fail "no frontier of 512 states"
  in
  let limit = Array.fold_left ( + ) 0 (Array.sub widths 0 (wide + 1)) in
  check Alcotest.bool "a level follows the wide one" true (limit < n);
  let options = { Core.Generate.default_options with max_states = limit } in
  match Core.Generate.run ~options u with
  | exception Mdp_lts.Lts.Too_many_states l -> (
    check int_ "limit carried" limit l;
    match Mdp_lts.Lts.last_abort_stats () with
    | Some st -> check int_ "aborted at" (limit + 1) st.Mdp_lts.Lts.ab_states
    | None -> Alcotest.fail "no abort stats recorded")
  | _ -> Alcotest.fail "expected Too_many_states"

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
            test_wide_default;
          Alcotest.test_case "parallel rounds granular" `Quick
            test_wide_granular;
          Alcotest.test_case "parallel rounds deletes" `Quick
            test_wide_deletes;
          Alcotest.test_case "max-states guard" `Quick test_too_many_states;
        ] );
      ( "seed oracle",
        [
          Alcotest.test_case "reachable configurations" `Quick test_seed_oracle;
          Alcotest.test_case "wide universe (over 63 words)" `Quick
            test_wide_universe;
          Alcotest.test_case "every step option" `Quick test_seed_options;
          Alcotest.test_case "wide fields, every step option" `Quick
            test_wide_fields;
          Alcotest.test_case "padded healthcare, every step option" `Quick
            test_padded_healthcare;
        ] );
      ( "witness tree",
        [
          Alcotest.test_case "queue BFS, every step option" `Quick
            test_witness_tree;
        ] );
    ]
