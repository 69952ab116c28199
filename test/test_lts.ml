(* Tests for the generic LTS library: hash-consing, exploration,
   reachability, the witness tree and paths, acyclicity, determinism
   and DOT export. *)

module IntState = struct
  type t = int
end

module StrLabel = struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
  let pp = Format.pp_print_string
end

module L = Mdp_lts.Lts.Make (IntState) (StrLabel)

(* One-word codec: the state is its own payload. *)
let packer =
  {
    Mdp_lts.Lts.pk_words = 1;
    pk_blit = (fun v dst off -> dst.(off) <- v);
    pk_decode = (fun src off -> src.(off));
  }

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* Explore from [init] with a list-valued successor function. *)
let explore ?max_states ~init step =
  let label_of, step_words = List_step.emitter packer step in
  L.explore ?max_states ~packing:packer ~init ~label_of ~step_words ()

(* The LTS [explore] builds from [init] over an explicit edge list. *)
let graph ~init edges =
  explore ~init (fun s ->
      List.filter_map (fun (src, l, dst) -> if src = s then Some (l, dst) else None) edges)

let single s = graph ~init:s []

(* A diamond: 0 -a-> 1 -c-> 3, 0 -b-> 2 -c-> 3. *)
let diamond () =
  let t = graph ~init:0 [ (0, "a", 1); (0, "b", 2); (1, "c", 3); (2, "c", 3) ] in
  (t, 0, 1, 2, 3)

let test_hash_consing () =
  (* 42 reaches itself and 7 twice over: three edges into two states. *)
  let t = graph ~init:42 [ (42, "loop", 42); (42, "a", 7); (42, "b", 7) ] in
  check int_ "two states" 2 (L.num_states t);
  check int_ "new data, new id" 7 (L.state_data t 1);
  check (Alcotest.list (Alcotest.pair Alcotest.string int_))
    "equal data, same id" [ ("loop", 0); ("a", 1); ("b", 1) ] (L.successors t 0)

(* Emitter keys: two keys may name equal labels. [label_of] runs once
   per key, equal labels share one id and make one transition per
   destination, and ids follow first-edge order. *)
let test_label_keys () =
  let names = [| "b"; "a"; "b" |] and calls = Array.make 3 0 in
  let label_of k =
    calls.(k) <- calls.(k) + 1;
    names.(k)
  in
  let step_words parent cand emit =
    let s = parent.(0) in
    if s < 3 then
      List.iter
        (fun k ->
          cand.(0) <- s + 1;
          emit k)
        [ 2; 1; 0 ]
  in
  let t = L.explore ~packing:packer ~init:0 ~label_of ~step_words () in
  check (Alcotest.array int_) "label_of once per key" [| 1; 1; 1 |] calls;
  check
    Alcotest.(option (array string))
    "first-edge order" (Some [| "b"; "a" |]) (L.interned_labels t);
  check int_ "states" 4 (L.num_states t);
  check int_ "equal labels, one transition" 6 (L.num_transitions t);
  check bool_ "deterministic" true (L.is_deterministic t)

let test_duplicate_transitions () =
  let t = graph ~init:0 [ (0, "x", 1); (0, "x", 1); (0, "y", 1) ] in
  check int_ "duplicate dropped, different label kept" 2 (L.num_transitions t);
  check (Alcotest.list (Alcotest.pair Alcotest.string int_)) "successors"
    [ ("x", 1); ("y", 1) ] (L.successors t 0)

let test_initial () =
  let t = graph ~init:5 [ (5, "a", 1); (1, "b", 9) ] in
  check int_ "initial is id 0" 0 (L.initial t);
  check int_ "initial holds the init data" 5 (L.state_data t (L.initial t));
  check int_ "later states follow" 3 (L.num_states t);
  check int_ "single state" 0 (L.initial (single 5))

let test_successors () =
  let t, s0, s1, s2, _ = diamond () in
  check int_ "out degree of s0" 2 (List.length (L.successors t s0));
  check (Alcotest.list (Alcotest.pair Alcotest.string int_)) "succ order"
    [ ("a", s1); ("b", s2) ] (L.successors t s0)

let test_reachability_and_paths () =
  let t, s0, _, _, s3 = diamond () in
  let parent, via = L.witness_tree t in
  check bool_ "every explored state is reachable" true
    (L.num_states t = 4
    && parent.(0) = -1
    && List.for_all
         (fun s -> 0 <= parent.(s) && parent.(s) < s)
         [ 1; 2; 3 ]);
  check (Alcotest.array int_) "tree parents: first edge in" [| -1; 0; 0; 1 |]
    parent;
  check
    Alcotest.(list string)
    "tree labels"
    [ "a"; "c" ]
    (L.unwind (parent, via)
       (fun lid _ -> (Option.get (L.interned_labels t)).(lid))
       s3);
  check bool_ "no path to an absent state" true
    (L.path_to t (fun s -> L.state_data t s = 99) = None);
  (match L.path_to t (fun s -> s = s3) with
  | Some steps ->
    check int_ "shortest path length" 2 (List.length steps);
    check int_ "path ends at goal" s3 (snd (List.nth steps 1))
  | None -> Alcotest.fail "expected a path");
  check bool_ "path to initial is empty" true (L.path_to t (fun s -> s = s0) = Some [])

let test_acyclic_and_deterministic () =
  let t, _, _, _, _ = diamond () in
  check bool_ "diamond acyclic" true (L.longest_path t <> None);
  check bool_ "diamond deterministic" true (L.is_deterministic t);
  let diamond_edges = [ (0, "a", 1); (0, "b", 2); (1, "c", 3); (2, "c", 3) ] in
  let back = graph ~init:0 ((1, "back", 0) :: diamond_edges) in
  check bool_ "cycle detected" true (L.longest_path back = None);
  let nondet = graph ~init:0 ((0, "a", 0) :: diamond_edges) in
  check bool_ "nondeterminism detected" false (L.is_deterministic nondet)

let test_explore () =
  (* Count to 5 with two labels; states are hash-consed ints. *)
  let t =
    explore ~init:0 (fun s ->
        if s >= 5 then [] else [ ("inc", s + 1); ("двa", min 5 (s + 2)) ])
  in
  check int_ "state count" 6 (L.num_states t);
  check bool_ "reaches 5" true
    (L.path_to t (fun s -> L.state_data t s = 5) <> None)

let test_explore_max_states () =
  match
    explore ~max_states:10 ~init:0 (fun s -> [ ("i", s + 1) ])
  with
  | exception Mdp_lts.Lts.Too_many_states n -> check int_ "carries the limit" 10 n
  | _ -> Alcotest.fail "expected Too_many_states"

let test_dag_statistics () =
  let t, _, _, _, _ = diamond () in
  check Alcotest.(option int_) "diamond longest path" (Some 2) (L.longest_path t);
  check Alcotest.(option int_) "diamond has two maximal paths" (Some 2)
    (L.count_maximal_paths t);
  (* A chain has one path. *)
  let chain = graph ~init:0 [ (0, "x", 1); (1, "y", 2) ] in
  check Alcotest.(option int_) "chain depth" (Some 2) (L.longest_path chain);
  check Alcotest.(option int_) "chain paths" (Some 1) (L.count_maximal_paths chain);
  (* Single state: depth 0, one (empty) path. *)
  let one = single 7 in
  check Alcotest.(option int_) "single depth" (Some 0) (L.longest_path one);
  check Alcotest.(option int_) "single path" (Some 1) (L.count_maximal_paths one);
  (* Cyclic: None. *)
  let cyc = graph ~init:0 [ (0, "a", 1); (1, "b", 0) ] in
  check Alcotest.(option int_) "cycle longest" None (L.longest_path cyc);
  check Alcotest.(option int_) "cycle paths" None (L.count_maximal_paths cyc)

let test_dot () =
  let t, _, _, _, _ = diamond () in
  let dot =
    L.to_dot ~graph_name:"g"
      ~label_style:(fun label -> if label = "a" then "color=red" else "")
      t
  in
  let contains needle =
    let hn = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  check bool_ "graph name" true (contains "digraph g");
  check bool_ "state label" true (contains "label=\"s3\"");
  check bool_ "styled edge" true (contains "color=red");
  check bool_ "initial bold" true (contains "penwidth=2")

let prop_explore_deterministic =
  QCheck.Test.make ~name:"explore is deterministic" ~count:50
    QCheck.(int_bound 20)
    (fun n ->
      let build () =
        explore ~init:0 (fun s ->
            if s >= n then []
            else [ ("a", (s + 1) mod (n + 1)); ("b", (s * 2) mod (n + 1)) ])
      in
      let a = build () and b = build () in
      L.num_states a = L.num_states b && L.num_transitions a = L.num_transitions b)

let () =
  Alcotest.run "lts"
    [
      ( "construction",
        [
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "duplicate transitions" `Quick test_duplicate_transitions;
          Alcotest.test_case "label keys" `Quick test_label_keys;
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "successors" `Quick test_successors;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "reachability/paths" `Quick test_reachability_and_paths;
          Alcotest.test_case "acyclic/deterministic" `Quick test_acyclic_and_deterministic;
        ] );
      ( "exploration",
        [
          Alcotest.test_case "fixed point" `Quick test_explore;
          Alcotest.test_case "max states guard" `Quick test_explore_max_states;
          QCheck_alcotest.to_alcotest prop_explore_deterministic;
        ] );
      ( "statistics",
        [ Alcotest.test_case "dag depth/paths" `Quick test_dag_statistics ] );
      ("output", [ Alcotest.test_case "dot" `Quick test_dot ]);
    ]
