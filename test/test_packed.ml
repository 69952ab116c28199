(* Regression tests for the packed LTS engine (PR 7): the arena-backed,
   sharded-dedup representation must produce the exact LTS of the boxed
   engine — state numbering, transition order, analysis output — for
   every job count, survive post-exploration mutation (the
   pseudonym-risk pass appends states and transitions), and round-trip
   states through the byte codecs exactly. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module Synthetic = Mdp_scenario.Synthetic
module P = Mdp_lts.Packed_repr
module Lts = Mdp_lts.Lts

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let transition_triples lts =
  List.map
    (fun (tr : Core.Plts.transition) ->
      (tr.src, Format.asprintf "%a" Core.Action.pp tr.label, tr.dst))
    (Core.Plts.transitions lts)

let triple = Alcotest.(triple int string int)

let same_lts ctx expected actual =
  check int_ (ctx ^ " states")
    (Core.Plts.num_states expected)
    (Core.Plts.num_states actual);
  check int_ (ctx ^ " transitions")
    (Core.Plts.num_transitions expected)
    (Core.Plts.num_transitions actual);
  for i = 0 to Core.Plts.num_states expected - 1 do
    if
      not
        (Core.Config.equal
           (Core.Plts.state_data expected i)
           (Core.Plts.state_data actual i))
    then Alcotest.failf "%s: state %d differs" ctx i
  done;
  check (Alcotest.list triple) (ctx ^ " transition list")
    (transition_triples expected) (transition_triples actual)

(* Boxed sequential run as ground truth; packed runs at several job
   counts must match it exactly. [par_threshold:0] forces the parallel
   sharded-dedup machinery even on models whose frontiers the default
   threshold would route through the sequential path. The raw triples
   are captured before any analysis — [Disclosure_risk.analyse]
   annotates labels in place. *)
let check_backends name ?profile u options =
  let boxed =
    Core.Generate.run ~options:{ options with Core.Generate.packed = false } u
  in
  let boxed_triples = transition_triples boxed in
  let report lts profile =
    Format.asprintf "%a" Core.Disclosure_risk.pp_report
      (Core.Disclosure_risk.analyse u lts profile)
  in
  let boxed_report = Option.map (report boxed) profile in
  List.iter
    (fun jobs ->
      let ctx = Printf.sprintf "%s jobs=%d" name jobs in
      let packed =
        Core.Generate.run
          ~options:{ options with Core.Generate.packed = true }
          ~jobs ~par_threshold:0 u
      in
      check int_ (ctx ^ " states")
        (Core.Plts.num_states boxed)
        (Core.Plts.num_states packed);
      check int_ (ctx ^ " transitions")
        (Core.Plts.num_transitions boxed)
        (Core.Plts.num_transitions packed);
      for i = 0 to Core.Plts.num_states boxed - 1 do
        if
          not
            (Core.Config.equal
               (Core.Plts.state_data boxed i)
               (Core.Plts.state_data packed i))
        then Alcotest.failf "%s: state %d differs" ctx i
      done;
      check (Alcotest.list triple) (ctx ^ " transition list") boxed_triples
        (transition_triples packed);
      match (profile, boxed_report) with
      | Some profile, Some expected ->
        check Alcotest.string (ctx ^ " disclosure report") expected
          (report packed profile)
      | _ -> ())
    [ 1; 4; 8 ]

let test_healthcare () =
  let u = Core.Universe.make H.diagram H.policy in
  check_backends "healthcare" ~profile:H.profile_case_a u
    Core.Generate.default_options;
  check_backends "healthcare-deletes" u
    { Core.Generate.default_options with potential_deletes = true }

let test_smart_home () =
  let u = Core.Universe.make SH.diagram SH.policy in
  check_backends "smart-home" ~profile:SH.profile u
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
      check_backends
        (Printf.sprintf "synthetic-%d-%d-%d" na nf fps)
        ~profile u Core.Generate.default_options)
    [ (2, 4, 3); (4, 6, 4); (6, 8, 5) ]

(* The pseudonym-risk pass mutates the LTS after exploration —
   [add_state] on a new config plus [add_transition] from mid-graph
   sources (overflow rows on the packed backend). Results and the
   mutated LTS must match the boxed run, and a disclosure pass over the
   mutated LTS must still agree. *)
let test_post_explore_mutation () =
  let u = Core.Universe.make H.study_diagram H.study_policy in
  let run packed =
    let lts =
      Core.Generate.run
        ~options:
          { Core.Generate.default_options with packed; granular_reads = true }
        u
    in
    let risks = Core.Pseudonym_risk.analyse u lts H.study_binding in
    (lts, risks)
  in
  let boxed, boxed_risks = run false in
  let packed, packed_risks = run true in
  check bool_ "risk transitions found" true (boxed_risks <> []);
  check int_ "same risk count" (List.length boxed_risks)
    (List.length packed_risks);
  List.iter2
    (fun (a : Core.Pseudonym_risk.risk_transition)
         (b : Core.Pseudonym_risk.risk_transition) ->
      check int_ "risk src" a.src b.src;
      check int_ "risk dst" a.dst b.dst;
      check Alcotest.string "risk actor" a.actor b.actor)
    boxed_risks packed_risks;
  same_lts "post-mutation" boxed packed;
  let profile =
    Core.User_profile.make
      ~sensitivities:[ (H.weight, 0.9) ]
      ~agreed_services:[ "DataCollection" ] ()
  in
  check Alcotest.string "disclosure after mutation"
    (Format.asprintf "%a" Core.Disclosure_risk.pp_report
       (Core.Disclosure_risk.analyse u boxed profile))
    (Format.asprintf "%a" Core.Disclosure_risk.pp_report
       (Core.Disclosure_risk.analyse u packed profile))

(* map_labels rewrites labels in place (risk annotation); on the packed
   backend that re-interns labels in rows and overflow. *)
let test_map_labels () =
  let u = Core.Universe.make H.diagram H.policy in
  let run packed =
    let lts =
      Core.Generate.run
        ~options:{ Core.Generate.default_options with packed }
        u
    in
    let plan = Core.Risk_plan.compile u lts in
    ignore (Core.Risk_plan.analyse plan H.profile_case_a);
    lts
  in
  same_lts "after plan annotation" (run false) (run true)

(* Label-only map_labels over rows and overflow rows (the pseudonym
   pass appends inferred transitions after exploration), with a
   non-injective map: packed and boxed agree on the result, [f] runs
   once per live label on packed, and the derived indexes agree. *)
let test_map_labels_label_only () =
  let u = Core.Universe.make H.study_diagram H.study_policy in
  let granular = { Core.Generate.default_options with granular_reads = true } in
  (* Drops every field of a read but the first and clears annotations:
     reads of one store by one actor collapse onto one label. *)
  let collapse (a : Core.Action.t) =
    if a.kind = Core.Action.Read then
      { a with fields = [ List.hd a.fields ]; risk = None }
    else a
  in
  let run packed =
    let lts = Core.Generate.run ~options:{ granular with packed } u in
    ignore (Core.Pseudonym_risk.analyse u lts H.study_binding);
    let live = List.sort_uniq compare
        (List.map (fun (tr : Core.Plts.transition) -> tr.label)
           (Core.Plts.transitions lts))
    in
    let calls = ref 0 in
    Core.Plts.map_labels lts (fun a -> incr calls; collapse a);
    (lts, List.length live, !calls)
  in
  let boxed, _, boxed_calls = run false in
  let packed, live, packed_calls = run true in
  check int_ "boxed: one call per transition"
    (Core.Plts.num_transitions boxed) boxed_calls;
  check int_ "packed: one call per live label" live packed_calls;
  check bool_ "map collapsed some labels" true
    (live > List.length (List.sort_uniq compare
       (List.map (fun (tr : Core.Plts.transition) -> tr.label)
          (Core.Plts.transitions packed))));
  same_lts "after label-only map" boxed packed;
  check bool_ "is_deterministic agrees"
    (Core.Plts.is_deterministic boxed) (Core.Plts.is_deterministic packed);
  Core.Plts.iter_states boxed (fun s ->
      if Core.Plts.predecessors boxed s <> Core.Plts.predecessors packed s then
        Alcotest.failf "predecessors of %d differ" s)

(* The per-label transition counts behind [Lts_render.summary] read
   the same on both backends, before and after annotation. *)
let test_render_summary () =
  let spec =
    match Synthetic.spec_of_string "synthetic:6-8-5@4" with
    | Some (Ok spec) -> spec
    | _ -> Alcotest.fail "bad spec"
  in
  let diagram, policy = Synthetic.model spec in
  let u = Core.Universe.make diagram policy in
  let run packed =
    Core.Generate.run ~options:{ Core.Generate.default_options with packed } u
  in
  let boxed = run false and packed = run true in
  check Alcotest.string "summary"
    (Core.Lts_render.summary u boxed) (Core.Lts_render.summary u packed);
  let profile = Synthetic.profile spec diagram in
  List.iter
    (fun lts ->
      ignore (Core.Risk_plan.analyse (Core.Risk_plan.compile u lts) profile))
    [ boxed; packed ];
  check Alcotest.string "summary after annotation"
    (Core.Lts_render.summary u boxed) (Core.Lts_render.summary u packed)

let test_find_state_packed () =
  let u = Core.Universe.make H.diagram H.policy in
  let lts = Core.Generate.run u in
  check bool_ "packed backend" true (Core.Plts.mem_stats lts <> None);
  (* Every stored state must be found at its own id. *)
  Core.Plts.iter_states lts (fun i ->
      match Core.Plts.find_state lts (Core.Plts.state_data lts i) with
      | Some j -> check int_ "find_state id" i j
      | None -> Alcotest.failf "state %d not found" i);
  check bool_ "absent state" true
    (Core.Plts.find_state lts
       (let cfg = Core.Config.copy (Core.Plts.state_data lts 0) in
        Mdp_prelude.Bitset.set cfg.Core.Config.executed 0;
        Mdp_prelude.Bitset.set cfg.Core.Config.privacy.has 0;
        cfg)
    = None
    ||
    (* the flipped config may genuinely exist in the model; only the
       contract "Some i implies equal data" matters *)
    true)

let test_mem_stats () =
  let diagram, policy = Synthetic.model (synthetic_spec (6, 8, 5)) in
  let u = Core.Universe.make diagram policy in
  let lts = Core.Generate.run u in
  match Core.Plts.mem_stats lts with
  | None -> Alcotest.fail "expected packed backend"
  | Some ms ->
    check int_ "states" (Core.Plts.num_states lts) ms.Lts.ms_states;
    check int_ "transitions" (Core.Plts.num_transitions lts)
      ms.Lts.ms_transitions;
    check int_ "full + delta = states"
      ms.Lts.ms_states
      (ms.Lts.ms_full_states + ms.Lts.ms_delta_states);
    check int_ "total is the sum of parts" ms.Lts.ms_total_bytes
      (ms.Lts.ms_state_bytes + ms.Lts.ms_edge_bytes + ms.Lts.ms_index_bytes
     + ms.Lts.ms_dedup_bytes);
    check bool_ "labels interned" true
      (ms.Lts.ms_labels > 0
      && ms.Lts.ms_labels < Core.Plts.num_transitions lts);
    check bool_ "deltas dominate" true
      (ms.Lts.ms_delta_states > ms.Lts.ms_full_states)

let test_abort_stats () =
  let u = Core.Universe.make H.diagram H.policy in
  let options = { Core.Generate.default_options with max_states = 5 } in
  List.iter
    (fun jobs ->
      match Core.Generate.run ~options ~jobs ~par_threshold:0 u with
      | exception Mdp_lts.Lts.Too_many_states n -> (
        check int_ "limit carried" 5 n;
        match Lts.last_abort_stats () with
        | None -> Alcotest.fail "no abort stats recorded"
        | Some st ->
          check int_ "abort limit" 5 st.Lts.ab_limit;
          check bool_ "states past limit" true (st.Lts.ab_states > 5);
          check bool_ "bytes/state observed" true
            (match st.Lts.ab_bytes_per_state with
            | Some bps -> bps > 0.
            | None -> false))
      | _ -> Alcotest.fail "expected Too_many_states")
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Codec property tests *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(oneof [ small_nat; int_bound max_int ])
    (fun v ->
      let b = Bytes.create 10 in
      let pos = P.put_varint b 0 v in
      pos = P.varint_size v
      &&
      let c = P.cursor () in
      c.P.b <- b;
      c.P.pos <- 0;
      P.get_varint c = v && c.P.pos = pos)

let prop_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:500 QCheck.int (fun v ->
      P.unzigzag (P.zigzag v) = v)

let prop_word_patch_roundtrip =
  QCheck.Test.make ~name:"word patch roundtrip" ~count:500
    QCheck.(pair int int)
    (fun (base, w) ->
      let b = Bytes.create 16 in
      let pos = P.put_word_patch b 0 ~base w in
      pos = P.word_patch_size ~base w
      &&
      let c = P.cursor () in
      c.P.b <- b;
      c.P.pos <- 0;
      P.get_word_patch c ~base = w && c.P.pos = pos)

(* Random configs of a fixed synthetic universe round-trip through the
   packed-word codec: blit then decode rebuilds an equal config, and
   word equality tracks config equality (the packer contract the
   sharded dedup relies on). *)
let prop_config_roundtrip =
  let diagram, policy = Synthetic.model (synthetic_spec (4, 6, 4)) in
  let u = Core.Universe.make diagram policy in
  let template = Core.Config.initial u in
  let w = Core.Config.nwords template in
  let random_config bits =
    let cfg = Core.Config.copy template in
    let open Mdp_prelude in
    List.iter
      (fun bit ->
        let pick = bit mod (2 + Array.length cfg.Core.Config.stores) in
        let set bs = Bitset.set bs (bit mod Bitset.length bs) in
        match pick with
        | 0 -> set cfg.Core.Config.privacy.has
        | 1 -> set cfg.Core.Config.privacy.could
        | p -> set cfg.Core.Config.stores.(p - 2))
      bits;
    (match bits with
    | b :: _ ->
      Bitset.set cfg.Core.Config.executed
        (b mod Bitset.length cfg.Core.Config.executed)
    | [] -> ());
    cfg
  in
  QCheck.Test.make ~name:"config pack/unpack roundtrip" ~count:300
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (bits_a, bits_b) ->
      let a = random_config bits_a and b = random_config bits_b in
      let wa = Array.make w 0 and wb = Array.make w 0 in
      ignore (Core.Config.blit_words a wa 0 : int);
      ignore (Core.Config.blit_words b wb 0 : int);
      Core.Config.equal (Core.Config.of_words ~template wa 0) a
      && Core.Config.equal a b = (wa = wb)
      && (not (Core.Config.equal a b)
         || Core.Config.hash a = Core.Config.hash b))

(* Delta records through the real arena: encode a chain of words where
   each element patches its parent, then decode every element back. *)
let prop_delta_chain_roundtrip =
  QCheck.Test.make ~name:"arena word-patch chain roundtrip" ~count:200
    QCheck.(pair (small_list int) (int_bound 6))
    (fun (xs, nwords) ->
      let w = 1 + nwords in
      let states =
        (* cumulative OR chains: adjacent states differ in few bytes,
           like BFS parents and children *)
        List.mapi
          (fun i x ->
            Array.init w (fun j -> (x lsr j) lxor (i * 0x9e3779b9))
          )
          xs
      in
      let arena = P.Arena.create () in
      let buf = Bytes.create (16 + (9 * w)) in
      let offs =
        List.mapi
          (fun i words ->
            let base =
              if i = 0 then Array.make w 0 else List.nth states (i - 1)
            in
            let pos = ref (P.put_varint buf 0 i) in
            Array.iteri
              (fun j wd -> pos := P.put_word_patch buf !pos ~base:base.(j) wd)
              words;
            P.Arena.append arena buf !pos)
          states
      in
      let c = P.cursor () in
      List.for_all2
        (fun off words ->
          (* decode by walking the stored parent chain *)
          let rec decode off dst =
            P.Arena.seek arena c off;
            let tag = P.get_varint c in
            if tag = 0 then
              for j = 0 to w - 1 do
                dst.(j) <- P.get_word_patch c ~base:0
              done
            else begin
              let b = c.P.b and pos = c.P.pos in
              decode (List.nth offs (tag - 1)) dst;
              c.P.b <- b;
              c.P.pos <- pos;
              for j = 0 to w - 1 do
                dst.(j) <- P.get_word_patch c ~base:dst.(j)
              done
            end
          in
          let dst = Array.make w 0 in
          decode off dst;
          dst = words)
        offs states)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "packed-engine"
    [
      ( "packed vs boxed",
        [
          Alcotest.test_case "healthcare" `Quick test_healthcare;
          Alcotest.test_case "smart home" `Quick test_smart_home;
          Alcotest.test_case "synthetic" `Quick test_synthetic;
          Alcotest.test_case "post-explore mutation" `Quick
            test_post_explore_mutation;
          Alcotest.test_case "map_labels" `Quick test_map_labels;
          Alcotest.test_case "label-only map_labels" `Quick
            test_map_labels_label_only;
          Alcotest.test_case "render summary" `Quick test_render_summary;
          Alcotest.test_case "find_state" `Quick test_find_state_packed;
          Alcotest.test_case "mem_stats" `Quick test_mem_stats;
          Alcotest.test_case "abort stats" `Quick test_abort_stats;
        ] );
      qsuite "codecs"
        [
          prop_varint_roundtrip;
          prop_zigzag_roundtrip;
          prop_word_patch_roundtrip;
          prop_config_roundtrip;
          prop_delta_chain_roundtrip;
        ];
    ]
