(* Tests for the external-memory spill tier (PR 9): under a resident
   byte budget the packed engine evicts sealed arena chunks and sealed
   dedup generations to disk and completes the exploration bounded by
   disk instead of RAM — with byte-identical state numbering for every
   budget, and with the spill directory torn down
   on every exit path (success via [drop_spill]/GC, [Too_many_states],
   cancellation).

   The models here are synthetic int graphs driven through [Lts.Make]
   directly: a heap-shaped successor function covers all [n] states in
   wide frontiers at near-zero step cost, so the tests can afford state
   counts that overflow shard tables (generation spill needs thousands
   of entries per shard) without the expense of real privacy-model
   steps. *)

module Lts = Mdp_lts.Lts

module IntState = struct
  type t = int
end

module IntLabel = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
  let pp = Format.pp_print_int
end

module L = Lts.Make (IntState) (IntLabel)

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

(* One-word packer: the state is its own payload. *)
let packer1 =
  {
    Lts.pk_words = 1;
    pk_blit = (fun v dst off -> dst.(off) <- v);
    pk_decode = (fun src off -> src.(off));
  }

(* Eight-word packer deriving seven junk words from the state: same
   dedup semantics, but records are several dozen bytes, so even small
   models fill arena chunks — the qcheck property uses it to reach the
   eviction paths with a few thousand states. *)
let packer8 =
  let mixers = [| 1; 2654435761; 40503; 2246822519; 3266489917; 668265263; 374761393; 2654435789 |] in
  {
    Lts.pk_words = 8;
    pk_blit =
      (fun v dst off ->
        for j = 0 to 7 do
          dst.(off + j) <- v * mixers.(j) land max_int
        done);
    pk_decode = (fun src off -> src.(off));
  }

(* Heap numbering mod n: from 0, successors (2i+1, 2i+2) mod n reach
   every state in log-depth, wide frontiers. Label 0/1 picks the
   branch; both of each state's edges are emitted twice so duplicate
   suppression runs on every expansion. *)
let step n i =
  let a = (2 * i) + 1 and b = (2 * i) + 2 in
  [ (0, a mod n); (1, b mod n); (0, a mod n) ]

(* Explore from 0 with a list-valued successor function. *)
let explore_with ?max_states ?cancel ?mem_budget ?spill_dir ~packing step =
  let label_of, step_words = List_step.emitter packing step in
  L.explore ?max_states ?cancel ~packing ?mem_budget ?spill_dir ~init:0
    ~label_of ~step_words ()

let explore ?mem_budget ?spill_dir ~packing n =
  explore_with ~max_states:(n + 10) ~packing ?mem_budget ?spill_dir (step n)

let same_lts ctx a b =
  check int_ (ctx ^ " states") (L.num_states a) (L.num_states b);
  check int_ (ctx ^ " transitions") (L.num_transitions a)
    (L.num_transitions b);
  for i = 0 to L.num_states a - 1 do
    if L.state_data a i <> L.state_data b i then
      Alcotest.failf "%s: state %d differs" ctx i;
    if L.successors a i <> L.successors b i then
      Alcotest.failf "%s: successors of %d differ" ctx i
  done

(* ------------------------------------------------------------------ *)
(* Budget determinism: the tentpole gate. *)

(* Big enough that shards hold > 4096 entries each, so a tight budget
   forces dedup-generation spill as well as arena-chunk eviction. *)
let big_n = 280_000

let test_budget_determinism () =
  let baseline = explore ~packing:packer1 big_n in
  check int_ "covers the whole graph" big_n (L.num_states baseline);
  let peak =
    match L.mem_stats baseline with
    | Some ms -> ms.Lts.ms_total_bytes
    | None -> Alcotest.fail "expected packed backend"
  in
  check bool_ "baseline did not spill" true
    (L.spill_stats baseline = None);
  let at_75 = explore ~packing:packer1 ~mem_budget:(3 * peak / 4) big_n in
  same_lts "budget=75%" baseline at_75;
  L.drop_spill at_75;
  (* The tight budget must actually have used the disk tier — both
     tiers of it. *)
  let lts = explore ~packing:packer1 ~mem_budget:(peak / 4) big_n in
  (match L.spill_stats lts with
  | None -> Alcotest.fail "25% budget did not spill"
  | Some sp ->
    check bool_ "spilled bytes" true (sp.Lts.sp_bytes > 0);
    check bool_ "spilled arena chunks" true (sp.Lts.sp_chunks > 0);
    check bool_ "spilled dedup generations" true (sp.Lts.sp_tables > 0);
    check bool_ "served faults" true (sp.Lts.sp_faults > 0);
    check int_ "budget recorded" (peak / 4) sp.Lts.sp_budget);
  (match L.mem_stats lts with
  | None -> Alcotest.fail "expected packed backend"
  | Some ms ->
    check int_ "resident = total - spilled"
      (ms.Lts.ms_total_bytes - ms.Lts.ms_spill_bytes)
      ms.Lts.ms_resident_bytes;
    check bool_ "budget in mem stats" true
      (ms.Lts.ms_mem_budget = Some (peak / 4)));
  (* Decodes must keep working against the disk tier after sealing. *)
  same_lts "budget=25%" baseline lts;
  L.drop_spill lts

(* ------------------------------------------------------------------ *)
(* Wide states: more than 63 words, so each record's wordmap spans
   several 63-bit groups. *)

(* Seventy words: the state itself, two full-width mixes (one at word
   62, the top bit of the first wordmap group, one at word 69 in the
   second group) and bit-selected constants elsewhere, so parent and
   child records differ in a scattering of words across both groups. *)
let packer70 =
  {
    Lts.pk_words = 70;
    pk_blit =
      (fun v dst off ->
        for j = 0 to 69 do
          dst.(off + j) <-
            (match j with
            | 0 -> v
            | 62 -> v * 2654435761 land max_int
            | 69 -> v * 40503 land max_int
            | _ -> if v land (1 lsl (j mod 17)) <> 0 then j else 0)
        done);
    pk_decode = (fun src off -> src.(off));
  }

let test_wide_states () =
  let n = 20_000 in
  let baseline = explore ~packing:packer70 n in
  check int_ "covers the whole graph" n (L.num_states baseline);
  (* Heap numbering is BFS order: state [i] is discovered as id [i]. *)
  for i = 0 to n - 1 do
    if L.state_data baseline i <> i then
      Alcotest.failf "state %d does not round-trip" i
  done;
  let budget = 256 * 1024 in
  let lts = explore ~packing:packer70 ~mem_budget:budget n in
  check bool_ "spilled" true
    (match L.spill_stats lts with
    | Some sp -> sp.Lts.sp_chunks > 0
    | None -> false);
  same_lts "budget" baseline lts;
  L.drop_spill lts

(* ------------------------------------------------------------------ *)
(* Teardown *)

let fresh_base =
  let k = ref 0 in
  fun () ->
    incr k;
    let base =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mdpriv-spill-test-%d-%d" (Unix.getpid ()) !k)
    in
    Unix.mkdir base 0o700;
    base

let entries base = Array.length (Sys.readdir base)

let rmdir_base base = try Unix.rmdir base with Unix.Unix_error _ -> ()

let test_teardown_success () =
  let base = fresh_base () in
  let n = 100_000 in
  let lts = explore ~packing:packer1 ~mem_budget:65536 ~spill_dir:base n in
  check int_ "one spill run under the base" 1 (entries base);
  check bool_ "spilled" true (L.spill_stats lts <> None);
  (* Reads still come off the disk tier before the drop. *)
  check int_ "decode across spilled chunks" 12345 (L.state_data lts 12345);
  L.drop_spill lts;
  check int_ "spill dir removed by drop_spill" 0 (entries base);
  rmdir_base base

let test_teardown_too_many_states () =
  let base = fresh_base () in
  let n = 100_000 in
  (match
     explore_with ~max_states:60_000 ~packing:packer1 ~mem_budget:65536
       ~spill_dir:base (step n)
   with
  | exception Lts.Too_many_states limit -> (
    check int_ "limit carried" 60_000 limit;
    check int_ "spill dir removed on abort" 0 (entries base);
    match Lts.last_abort_stats () with
    | None -> Alcotest.fail "no abort stats recorded"
    | Some st ->
      check bool_ "abort budget recorded" true
        (st.Lts.ab_mem_budget = Some 65536);
      check bool_ "abort spill occupancy" true (st.Lts.ab_spill_bytes > 0);
      check bool_ "abort resident bytes" true (st.Lts.ab_resident_bytes > 0))
  | (_ : L.t) -> Alcotest.fail "expected Too_many_states");
  rmdir_base base

let test_teardown_cancelled () =
  let base = fresh_base () in
  let n = 100_000 in
  let tok = Mdp_obs.Cancel.create () in
  let calls = ref 0 in
  let step i =
    incr calls;
    (* Fire mid-run, well after the first evictions at this budget. *)
    if !calls = 50_000 then Mdp_obs.Cancel.cancel tok;
    step n i
  in
  (match
     explore_with ~max_states:(n + 10) ~packing:packer1 ~cancel:tok
       ~mem_budget:65536 ~spill_dir:base step
   with
  | exception Mdp_obs.Cancel.Cancelled _ ->
    check int_ "spill dir removed on cancel" 0 (entries base)
  | (_ : L.t) -> Alcotest.fail "expected Cancelled");
  rmdir_base base

(* ------------------------------------------------------------------ *)
(* Random budgets stay byte-identical (qcheck) *)

let prop_random_budget =
  QCheck.Test.make ~name:"random budget byte-identical" ~count:12
    QCheck.(pair (int_range 500 6_000) (int_range 0 (256 * 1024)))
    (fun (n, budget) ->
      let baseline = explore ~packing:packer8 n in
      let lts = explore ~packing:packer8 ~mem_budget:budget n in
      let ok = ref (L.num_states baseline = L.num_states lts) in
      for i = 0 to L.num_states baseline - 1 do
        ok :=
          !ok
          && L.state_data baseline i = L.state_data lts i
          && L.successors baseline i = L.successors lts i
      done;
      L.drop_spill lts;
      !ok)

let () =
  Alcotest.run "spill"
    [
      ( "external-memory",
        [
          Alcotest.test_case "budget determinism" `Quick
            test_budget_determinism;
          Alcotest.test_case "teardown on success" `Quick
            test_teardown_success;
          Alcotest.test_case "teardown on state limit" `Quick
            test_teardown_too_many_states;
          Alcotest.test_case "teardown on cancel" `Quick
            test_teardown_cancelled;
          QCheck_alcotest.to_alcotest prop_random_budget;
        ] );
      ( "wide states",
        [ Alcotest.test_case "70-word packer, budgeted and not" `Quick
            test_wide_states ] );
    ]
