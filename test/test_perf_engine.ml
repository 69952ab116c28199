(* Regression tests for the fast-path LTS engine: it must reach exactly
   the configurations of the seed engine (test/seed_engine.ml), parallel
   frontier exploration must produce the exact LTS of the sequential run
   — state numbering, transition order, analysis output — and the
   integer-keyed bisimulation must compute the same partition as the
   seed's string-signature refinement. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module Synthetic = Mdp_scenario.Synthetic

let check = Alcotest.check
let int_ = Alcotest.int

let transition_triples lts =
  List.map
    (fun (tr : Core.Plts.transition) ->
      (tr.src, Format.asprintf "%a" Core.Action.pp tr.label, tr.dst))
    (Core.Plts.transitions lts)

let triple = Alcotest.(triple int string int)

(* Sequential vs parallel: the LTSs must be indistinguishable. The raw
   transition list is captured before any analysis — [analyse] annotates
   labels in place. [par_threshold:0] forces the parallel machinery even
   on these small models, which the default threshold would (correctly)
   route through the sequential path. *)
let check_engines name ?profile u options =
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
      let par = Core.Generate.run ~options ~jobs ~par_threshold:0 u in
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

(* Against the seed engine: equal state and transition counts, and the
   same set of reachable configurations (every library state is one the
   seed reached; with equal counts the sets coincide). *)
let check_seed_oracle name u options =
  let seed = Seed_engine.run ~options u in
  List.iter
    (fun jobs ->
      let ctx what = Printf.sprintf "%s jobs=%d %s" name jobs what in
      let lts = Core.Generate.run ~options ~jobs ~par_threshold:0 u in
      check int_ (ctx "states") (Seed_engine.num_states seed)
        (Core.Plts.num_states lts);
      check int_ (ctx "transitions")
        (Seed_engine.num_transitions seed)
        (Core.Plts.num_transitions lts);
      for i = 0 to Core.Plts.num_states lts - 1 do
        if not (Seed_engine.mem seed (Core.Plts.state_data lts i)) then
          Alcotest.failf "%s: state %d unknown to the seed engine" (ctx "") i
      done)
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
    [ (2, 4, 3); (6, 8, 5) ]

let test_too_many_states () =
  let u = Core.Universe.make H.diagram H.policy in
  let options = { Core.Generate.default_options with max_states = 5 } in
  List.iter
    (fun jobs ->
      match Core.Generate.run ~options ~jobs ~par_threshold:0 u with
      | exception Mdp_lts.Lts.Too_many_states n ->
        check int_ "limit carried" 5 n
      | _ -> Alcotest.fail "expected Too_many_states")
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Bisimulation: the integer-keyed refinement must compute the partition
   of the seed's string-signature algorithm, reproduced here verbatim. *)

let seed_bisimulation_classes lts ~init_key =
  let n = Core.Plts.num_states lts in
  if n = 0 then []
  else begin
    let label_key l = Format.asprintf "%a" Core.Action.pp l in
    let block = Array.make n 0 in
    let assign keyed =
      let tbl = Hashtbl.create 16 in
      let next = ref 0 in
      for s = 0 to n - 1 do
        let k = keyed s in
        match Hashtbl.find_opt tbl k with
        | Some b -> block.(s) <- b
        | None ->
          Hashtbl.add tbl k !next;
          block.(s) <- !next;
          incr next
      done;
      !next
    in
    let nblocks = ref (assign init_key) in
    let changed = ref true in
    while !changed do
      let signature s =
        let sigs =
          List.map
            (fun (l, d) -> Printf.sprintf "%s>%d" (label_key l) block.(d))
            (Core.Plts.successors lts s)
        in
        Printf.sprintf "%d|%s" block.(s)
          (String.concat ";" (List.sort_uniq String.compare sigs))
      in
      let n' = assign signature in
      changed := n' <> !nblocks;
      nblocks := n'
    done;
    let buckets = Array.make !nblocks [] in
    for s = n - 1 downto 0 do
      buckets.(block.(s)) <- s :: buckets.(block.(s))
    done;
    Array.to_list buckets
  end

let check_bisim name lts ~init_key =
  let classes = Alcotest.(list (list int)) in
  check classes name
    (seed_bisimulation_classes lts ~init_key)
    (Core.Plts.bisimulation_classes lts ~init_key)

let test_bisim_healthcare () =
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  check_bisim "trivial key" lts ~init_key:(fun _ -> "");
  check_bisim "out-degree key" lts ~init_key:(fun s ->
      string_of_int (List.length (Core.Plts.successors lts s)))

let test_bisim_synthetic () =
  let diagram, policy = Synthetic.model (synthetic_spec (4, 6, 4)) in
  let u = Core.Universe.make diagram policy in
  let lts = Core.Generate.run u in
  check_bisim "synthetic trivial key" lts ~init_key:(fun _ -> "");
  let q, _ = Core.Plts.quotient lts ~init_key:(fun _ -> "") in
  check int_ "quotient classes"
    (List.length (seed_bisimulation_classes lts ~init_key:(fun _ -> "")))
    (Core.Plts.num_states q)

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
          Alcotest.test_case "max-states guard" `Quick test_too_many_states;
        ] );
      ( "seed oracle",
        [ Alcotest.test_case "reachable configurations" `Quick test_seed_oracle ] );
      ( "bisimulation",
        [
          Alcotest.test_case "healthcare vs seed" `Quick test_bisim_healthcare;
          Alcotest.test_case "synthetic vs seed" `Quick test_bisim_synthetic;
        ] );
    ]
