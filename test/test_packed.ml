(* Regression tests for the packed LTS store: the arena-backed,
   sharded-dedup representation must record what a materialised
   reference records, stay unchanged through the post-exploration
   pseudonym-risk pass, survive label rewriting, account for its bytes,
   and round-trip states through the byte codecs exactly. Job-count
   determinism is covered by test_perf_engine. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module Synthetic = Mdp_scenario.Synthetic
module P = Mdp_lts.Packed_repr
module Lts = Mdp_lts.Lts

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

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

(* The boxed side of these comparisons is a materialised reference:
   the seed engine's cons-list LTS (test/seed_engine.ml), which shares
   no code with the packed store, or a plain list of the LTS's own
   transitions captured before a rewrite. *)

let granular = { Core.Generate.default_options with granular_reads = true }

let synthetic_spec (na, nf, fps) =
  {
    Synthetic.seed = 42;
    nactors = na;
    nfields = nf;
    nstores = 2;
    nservices = 2;
    flows_per_service = fps;
  }

(* The pseudonym-risk pass reads the explored LTS and leaves it alone:
   after the pass the LTS is still the seed's, and it and a disclosure
   pass over it equal a fresh exploration's. *)
let test_post_explore_mutation () =
  let u = Core.Universe.make H.study_diagram H.study_policy in
  let seed = Seed_engine.run ~options:granular u in
  let passed = Core.Generate.run ~options:granular u in
  let risks = Core.Pseudonym_risk.analyse u passed [ H.study_binding ] in
  check bool_ "risk transitions found" true (risks <> []);
  Seed_engine.check_lts "after the pass" seed passed;
  let fresh = Core.Generate.run ~options:granular u in
  same_lts "after the pass" fresh passed;
  let profile =
    Core.User_profile.make
      ~sensitivities:[ (H.weight, 0.9) ]
      ~agreed_services:[ "DataCollection" ] ()
  in
  check Alcotest.string "disclosure after the pass"
    (Format.asprintf "%a" Core.Disclosure_risk.pp_report
       (Core.Disclosure_risk.analyse u fresh profile))
    (Format.asprintf "%a" Core.Disclosure_risk.pp_report
       (Core.Disclosure_risk.analyse u passed profile))

(* The per-label transition counts behind [Lts_render.summary] read
   the same as counts over the seed engine's transitions, before and
   after annotation. *)
let test_render_summary () =
  let spec =
    match Synthetic.spec_of_string "synthetic:6-8-5@4" with
    | Some (Ok spec) -> spec
    | _ -> Alcotest.fail "bad spec"
  in
  let diagram, policy = Synthetic.model spec in
  let u = Core.Universe.make diagram policy in
  let seed = Seed_engine.run u in
  let reference =
    let kinds = Hashtbl.create 8 and provs = Hashtbl.create 4 in
    let bump tbl k =
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
    in
    for s = 0 to Seed_engine.num_states seed - 1 do
      List.iter
        (fun ((a : Core.Action.t), _) ->
          bump kinds (Format.asprintf "%a" Core.Action.pp_kind a.kind);
          bump provs
            (match a.provenance with
            | Core.Action.From_flow _ -> "flow"
            | Core.Action.Potential -> "potential"))
        (Seed_engine.successors seed s)
    done;
    let render tbl =
      Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %d" k v :: acc) tbl []
      |> List.sort String.compare |> String.concat ", "
    in
    Printf.sprintf "%d states, %d transitions (%s; %s)"
      (Seed_engine.num_states seed)
      (Seed_engine.num_transitions seed)
      (render kinds) (render provs)
  in
  let lts = Core.Generate.run u in
  check Alcotest.string "summary" reference (Core.Lts_render.summary u lts);
  ignore
    (Core.Risk_plan.analyse (Core.Risk_plan.compile u lts)
       (Synthetic.profile spec diagram));
  check Alcotest.string "summary after annotation" reference
    (Core.Lts_render.summary u lts)

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
  match Core.Generate.run ~options u with
  | exception Mdp_lts.Lts.Too_many_states n -> (
    check int_ "limit carried" 5 n;
    match Lts.last_abort_stats () with
    | None -> Alcotest.fail "no abort stats recorded"
    | Some st ->
      check int_ "abort limit" 5 st.Lts.ab_limit;
      check bool_ "states past limit" true (st.Lts.ab_states > 5);
      check bool_ "bytes/state observed" true (st.Lts.ab_bytes_per_state > 0.))
  | _ -> Alcotest.fail "expected Too_many_states"

(* ------------------------------------------------------------------ *)
(* Decode cache *)

module IntLabel = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
  let pp = Format.pp_print_int
end

module IL = Lts.Make (struct type t = int end) (IntLabel)

(* Three words per state, all derived from the state, so a slot holding
   the wrong state's words differs in every word. *)
let packer3 =
  {
    Lts.pk_words = 3;
    pk_blit =
      (fun v dst off ->
        dst.(off) <- v;
        dst.(off + 1) <- v * 2654435761 land max_int;
        dst.(off + 2) <- v lxor 0x5bd1e995);
    pk_decode = (fun src off -> src.(off));
  }

(* Heap numbering below [n]: state [v] steps to [2v+1], [2v+2] and
   [2v+3], the last also the first child of [v+1]. BFS ids are the
   values, round k expands the (up to) 2^k states from 2^k - 1, and
   each state but the first three is a dedup hit exactly once, when
   [v+1] is expanded right after [v] created it. *)
let heap_step n v =
  List.filter (fun (_, s) -> s < n) [ (0, (2 * v) + 1); (1, (2 * v) + 2); (2, (2 * v) + 3) ]

let explore_heap n =
  let label_of, step_words = List_step.emitter packer3 (heap_step n) in
  IL.explore ~max_states:(n + 10) ~packing:packer3 ~init:0 ~label_of
    ~step_words ()

(* A queue BFS over [heap_step]: the states in discovery order, each
   row with repeated edges dropped, and the widest frontier. *)
let reference_bfs n =
  let ids = Hashtbl.create n and states = ref [] and rows = ref [] in
  let q = Queue.create () in
  let id_of v =
    match Hashtbl.find_opt ids v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids v i;
      states := v :: !states;
      Queue.add v q;
      i
  in
  ignore (id_of 0 : int);
  let depth = Hashtbl.create n in
  Hashtbl.add depth 0 0;
  let width = Hashtbl.create 32 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find depth v in
    Hashtbl.replace width d (1 + Option.value (Hashtbl.find_opt width d) ~default:0);
    let row =
      List.fold_left
        (fun row (l, s) ->
          let known = Hashtbl.mem ids s in
          let e = (l, id_of s) in
          if not known then Hashtbl.add depth s (d + 1);
          if List.mem e row then row else e :: row)
        [] (heap_step n v)
    in
    rows := List.rev row :: !rows
  done;
  ( Array.of_list (List.rev !states),
    Array.of_list (List.rev !rows),
    Hashtbl.fold (fun _ w acc -> max w acc) width 0 )

let decode_cache_misses f =
  let module M = Mdp_obs.Metrics in
  let before = M.enabled () in
  M.set_enabled true;
  M.reset ();
  Fun.protect ~finally:(fun () -> M.set_enabled before) @@ fun () ->
  let r = f () in
  (r, Option.value ~default:0 (List.assoc_opt "lts/decode_cache_misses" (M.snapshot ()).M.counters))

let check_against_reference n lts =
  let states, rows, widest = reference_bfs n in
  check int_ "states" (Array.length states) (IL.num_states lts);
  Array.iteri
    (fun i v ->
      if IL.state_data lts i <> v then
        Alcotest.failf "state %d holds %d, the reference %d" i
          (IL.state_data lts i) v;
      if IL.successors lts i <> rows.(i) then
        Alcotest.failf "row of state %d differs from the reference" i)
    states;
  widest

(* An exploration with fewer states than the cache's 2^16 slots keeps
   every state in its slot from creation on: no confirmation or
   expansion misses. *)
let test_cache_primed () =
  let n = 60_000 in
  let lts, misses = decode_cache_misses (fun () -> explore_heap n) in
  ignore (check_against_reference n lts : int);
  check int_ "decode-cache misses" 0 misses

(* More than 2^16 states, and a frontier wider than 2^16: new states
   evict the slots of states that are not expanded yet, which then miss
   at their expansion and, decoded again, evict later ones. Numbering
   and rows still equal the reference BFS. A state's one dedup hit
   comes right after its creation, so with every slot primed a state
   misses at most at its expansion: fewer misses than states. Without
   priming every hit would miss as well. *)
let test_cache_slot_reuse () =
  let n = 300_000 in
  let lts, misses = decode_cache_misses (fun () -> explore_heap n) in
  let widest = check_against_reference n lts in
  check bool_ "frontier wider than the cache" true (widest > 1 lsl 16);
  check bool_ "evicted states were decoded again" true (misses > 0);
  if misses >= n then
    Alcotest.failf "%d decode-cache misses over %d states" misses n

(* A one-off decode of a sealed LTS allocates a small cache table, not
   the full 2^16-slot one (several MB). *)
let test_one_off_decode () =
  let diagram, policy = Synthetic.model (synthetic_spec (6, 8, 5)) in
  let u = Core.Universe.make diagram policy in
  let lts = Core.Generate.run u in
  let last = Core.Plts.num_states lts - 1 in
  let before = Gc.allocated_bytes () in
  let cfg : Core.Config.t = Core.Plts.state_data lts last in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity cfg);
  if bytes > 65536. then
    Alcotest.failf "one-off decode allocated %.0f bytes" bytes

(* Exploration's per-state work allocates next to nothing: each new
   state's packed words go into the arena, its edges into the open row,
   and the word loops of the step function and of the dedup confirm no
   closure. A 75,780-state exploration stays within a few minor words
   per state; a closure in any of those loops costs over ten times
   more. *)
let test_explore_minor_words () =
  let diagram, policy = Synthetic.model (synthetic_spec (9, 13, 8)) in
  let u = Core.Universe.make diagram policy in
  let before = Gc.minor_words () in
  let lts = Core.Generate.run u in
  let words = Gc.minor_words () -. before in
  let n = Core.Plts.num_states lts in
  check bool_ "at least 50,000 states" true (n >= 50_000);
  let per_state = words /. float_of_int n in
  if per_state > 16. then
    Alcotest.failf "%.0f minor words over %d states: %.1f per state" words n
      per_state

(* ------------------------------------------------------------------ *)
(* Codec property tests *)

(* Any 63-bit pattern, negative ones included: a wordmap group with
   its top bit set is a negative int. *)
let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(oneof [ small_nat; int_bound max_int; int ])
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
    let cfg = Seed_engine.copy_config template in
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
          Alcotest.test_case "post-explore mutation" `Quick
            test_post_explore_mutation;
          Alcotest.test_case "render summary" `Quick test_render_summary;
          Alcotest.test_case "mem_stats" `Quick test_mem_stats;
          Alcotest.test_case "abort stats" `Quick test_abort_stats;
        ] );
      ( "decode cache",
        [
          Alcotest.test_case "primed at creation" `Quick test_cache_primed;
          Alcotest.test_case "slot reuse past 2^16 states" `Quick
            test_cache_slot_reuse;
          Alcotest.test_case "one-off decode" `Quick test_one_off_decode;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "explore minor words" `Quick
            test_explore_minor_words;
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
