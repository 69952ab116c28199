(* Unit and property tests for mdp_prelude: bitsets, interning,
   validation, fractions, PRNG, list helpers, text tables. *)

open Mdp_prelude

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check (Alcotest.list int_) "fresh is empty" [] (Bitset.to_list b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  check bool_ "get 0" true (Bitset.get b 0);
  check bool_ "get 63" true (Bitset.get b 63);
  check bool_ "get 64" true (Bitset.get b 64);
  check bool_ "get 99" true (Bitset.get b 99);
  check bool_ "get 1" false (Bitset.get b 1);
  check (Alcotest.list int_) "to_list" [ 0; 63; 64; 99 ] (Bitset.to_list b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Bitset: index out of bounds") (fun () ->
      ignore (Bitset.get b 10));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bitset: index out of bounds") (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "negative capacity" (Invalid_argument "Bitset.create")
    (fun () -> ignore (Bitset.create (-1)))

let test_bitset_set_ops () =
  let a = Bitset.of_list 50 [ 1; 2; 3; 40 ] in
  let b = Bitset.of_list 50 [ 3; 4; 40; 49 ] in
  check bool_ "subset no" false (Bitset.subset a b);
  check bool_ "subset yes" true (Bitset.subset (Bitset.of_list 50 [ 3; 40 ]) a);
  let c = Bitset.of_list 50 (Bitset.to_list a) in
  Bitset.union_into ~dst:c b;
  check (Alcotest.list int_) "union_into" [ 1; 2; 3; 4; 40; 49 ] (Bitset.to_list c);
  check (Alcotest.list int_) "source unchanged" [ 3; 4; 40; 49 ] (Bitset.to_list b)

let test_bitset_length_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: length mismatch")
    (fun () -> ignore (Bitset.subset a b))

let test_bitset_zero_length () =
  let b = Bitset.create 0 in
  check (Alcotest.list int_) "empty" [] (Bitset.to_list b);
  check bool_ "equal to rebuilt" true (Bitset.equal b (Bitset.of_list 0 []))

let test_bitset_words () =
  let b = Bitset.of_list 130 [ 0; 5; 62; 63; 64; 100; 129 ] in
  check int_ "extract low word" ((1 lsl 0) lor (1 lsl 5) lor (1 lsl 62))
    (Bitset.extract b ~pos:0 ~len:63);
  (* A slice crossing the 63-bit word boundary. *)
  check int_ "extract straddling" ((1 lsl 2) lor (1 lsl 3) lor (1 lsl 4))
    (Bitset.extract b ~pos:60 ~len:10);
  check int_ "extract empty slice" 0 (Bitset.extract b ~pos:65 ~len:30);
  check int_ "extract zero len" 0 (Bitset.extract b ~pos:10 ~len:0);
  Alcotest.check_raises "extract out of range"
    (Invalid_argument "Bitset: word range out of bounds") (fun () ->
      ignore (Bitset.extract b ~pos:100 ~len:40));
  let c = Bitset.create 130 in
  Bitset.set c 62;
  Bitset.set c 69;
  check int_ "extract after set, straddling" ((1 lsl 2) lor (1 lsl 9))
    (Bitset.extract c ~pos:60 ~len:10)

let prop_bitset_extract_roundtrip =
  QCheck.Test.make ~name:"set bits then extract roundtrips" ~count:200
    QCheck.(pair (int_bound 80) (small_list (int_bound 40)))
    (fun (pos, xs) ->
      let len = 41 in
      let bits =
        List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 xs
      in
      let b = Bitset.create (pos + len) in
      List.iter (fun i -> Bitset.set b (pos + i)) xs;
      Bitset.extract b ~pos ~len = bits
      && Bitset.to_list b = List.map (( + ) pos) (List.sort_uniq Int.compare xs))

let bitset_of_gen_list l = Bitset.of_list 64 l

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset to_list/of_list roundtrip" ~count:200
    QCheck.(small_list (int_bound 63))
    (fun xs ->
      let sorted = List.sort_uniq Int.compare xs in
      Bitset.to_list (bitset_of_gen_list xs) = sorted)

let prop_bitset_hash_equal =
  QCheck.Test.make ~name:"equal bitsets hash equally" ~count:200
    QCheck.(small_list (int_bound 63))
    (fun xs ->
      let a = bitset_of_gen_list xs and b = bitset_of_gen_list (List.rev xs) in
      Bitset.equal a b && Bitset.hash a = Bitset.hash b)

(* ------------------------------------------------------------------ *)
(* Interner *)

let test_interner () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check int_ "first id" 0 a;
  check int_ "second id" 1 b;
  check int_ "re-intern" a (Interner.intern t "alpha");
  check int_ "size" 2 (Interner.size t);
  check Alcotest.(option int_) "find" (Some 1) (Interner.find t "beta");
  check Alcotest.(option int_) "find missing" None (Interner.find t "gamma");
  check Alcotest.string "name" "beta" (Interner.name t 1);
  Alcotest.check_raises "bad id" (Invalid_argument "Interner.name") (fun () ->
      ignore (Interner.name t 5))

let test_interner_growth () =
  let t = Interner.create () in
  let ids = List.init 100 (fun i -> Interner.intern t (string_of_int i)) in
  check (Alcotest.list int_) "dense ids" (List.init 100 Fun.id) ids;
  check int_ "size" 100 (Interner.size t)

(* ------------------------------------------------------------------ *)
(* Validate *)

let test_validate () =
  let ctx = Validate.create () in
  check bool_ "ok result" true (Validate.result ctx 42 = Ok 42);
  Validate.errorf ctx "first %d" 1;
  Validate.require ctx false "second %s" "two";
  Validate.require ctx true "not recorded";
  check (Alcotest.list Alcotest.string) "errors in order"
    [ "first 1"; "second two" ] (Validate.errors ctx);
  check bool_ "error result" true
    (Validate.result ctx 42 = Error [ "first 1"; "second two" ])

(* ------------------------------------------------------------------ *)
(* Frac *)

let test_frac () =
  let f = Frac.make 2 4 in
  check Alcotest.string "unreduced" "2/4" (Frac.to_string f);
  check bool_ "ge 0.5" true (Frac.ge f 0.5);
  check bool_ "not ge 0.51" false (Frac.ge f 0.51);
  check bool_ "2/2 >= 0.9" true (Frac.ge (Frac.make 2 2) 0.9);
  check bool_ "3/4 < 0.9" false (Frac.ge (Frac.make 3 4) 0.9);
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Frac.make: non-positive denominator") (fun () ->
      ignore (Frac.make 1 0))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  check (Alcotest.list int_) "same seed, same stream" xs ys;
  let c = Prng.create ~seed:8 in
  let zs = List.init 20 (fun _ -> Prng.int c 1000) in
  check bool_ "different seed differs" true (xs <> zs)

let test_prng_bounds () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 500 do
    let v = Prng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let f = Prng.float rng 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.fail "float out of bounds";
    let r = Prng.range rng 5 9 in
    if r < 5 || r > 9 then Alcotest.fail "range out of bounds"
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:11 in
  let l = List.init 30 Fun.id in
  let s = Prng.shuffle rng l in
  check (Alcotest.list int_) "same elements" l (List.sort Int.compare s)

let test_prng_gaussian_moments () =
  let rng = Prng.create ~seed:5 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Prng.gaussian rng ~mean:10.0 ~stddev:2.0) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  check bool_ "mean approx 10" true (Float.abs (mean -. 10.0) < 0.1)

(* ------------------------------------------------------------------ *)
(* Listx *)

let test_listx () =
  check
    (Alcotest.list (Alcotest.pair int_ (Alcotest.list int_)))
    "group_by"
    [ (0, [ 0; 2; 4 ]); (1, [ 1; 3 ]) ]
    (Listx.group_by ~key:(fun x -> x mod 2) [ 0; 1; 2; 3; 4 ]);
  check (Alcotest.list int_) "dedup keeps first" [ 3; 1; 2 ]
    (Listx.dedup [ 3; 1; 3; 2; 1 ]);
  check int_ "sum_by" 6 (Listx.sum_by Fun.id [ 1; 2; 3 ]);
  check int_ "count" 2 (Listx.count (fun x -> x > 1) [ 1; 2; 3 ]);
  check Alcotest.(option int_) "index_of" (Some 1)
    (Listx.index_of (( = ) 5) [ 4; 5; 6 ]);
  check Alcotest.(option int_) "find_duplicate none" None
    (Listx.find_duplicate Fun.id [ 1; 2; 3 ]);
  check Alcotest.(option int_) "find_duplicate" (Some 2)
    (Listx.find_duplicate Fun.id [ 1; 2; 3; 2 ]);
  check (Alcotest.float 1e-9) "max_byf empty" 0.0 (Listx.max_byf Fun.id [])

(* ------------------------------------------------------------------ *)
(* Texttable *)

let test_texttable () =
  let t = Texttable.create ~header:[ "a"; "bb" ] in
  Texttable.add_row t [ "xxx" ];
  Texttable.add_row t [ "y"; "z" ];
  let rendered = Texttable.render t in
  check bool_ "contains header" true
    (String.length rendered > 0
    && String.sub rendered 0 1 = "a");
  check int_ "line count" 4
    (List.length (String.split_on_char '\n' rendered));
  Alcotest.check_raises "too wide"
    (Invalid_argument "Texttable.add_row: row longer than header") (fun () ->
      Texttable.add_row t [ "1"; "2"; "3" ])

(* ------------------------------------------------------------------ *)
(* Parallel *)

exception Chunk_failed of int

(* A chunk that raises must not leave the other chunks' domains
   running: every worker is joined before the first exception (in
   chunk order) is re-raised. *)
let test_map_chunks_joins_on_raise () =
  let finished = Atomic.make 0 in
  let run fail =
    Parallel.map_chunks ~jobs:4 4 (fun lo _ ->
        if fail lo then raise (Chunk_failed lo);
        Unix.sleepf 0.05;
        Atomic.incr finished)
  in
  Alcotest.check_raises "chunk 0 raises" (Chunk_failed 0) (fun () ->
      ignore (run (fun lo -> lo = 0)));
  check int_ "every worker joined" 3 (Atomic.get finished);
  Atomic.set finished 0;
  Alcotest.check_raises "first failing chunk wins" (Chunk_failed 1) (fun () ->
      ignore (run (fun lo -> lo = 1 || lo = 3)));
  check int_ "surviving chunks finished" 2 (Atomic.get finished);
  check (Alcotest.list (Alcotest.pair int_ int_)) "results in chunk order"
    [ (0, 2); (2, 4); (4, 7) ]
    (Parallel.map_chunks ~jobs:3 7 (fun lo hi -> (lo, hi)))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "prelude"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "set ops" `Quick test_bitset_set_ops;
          Alcotest.test_case "length mismatch" `Quick test_bitset_length_mismatch;
          Alcotest.test_case "zero length" `Quick test_bitset_zero_length;
          Alcotest.test_case "word extract/set" `Quick test_bitset_words;
        ] );
      qsuite "bitset properties"
        [
          prop_bitset_roundtrip;
          prop_bitset_hash_equal;
          prop_bitset_extract_roundtrip;
        ];
      ( "interner",
        [
          Alcotest.test_case "basic" `Quick test_interner;
          Alcotest.test_case "growth" `Quick test_interner_growth;
        ] );
      ("validate", [ Alcotest.test_case "accumulation" `Quick test_validate ]);
      ("frac", [ Alcotest.test_case "fractions" `Quick test_frac ]);
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        ] );
      ("listx", [ Alcotest.test_case "helpers" `Quick test_listx ]);
      ("texttable", [ Alcotest.test_case "render" `Quick test_texttable ]);
      ( "parallel",
        [
          Alcotest.test_case "map_chunks joins on raise" `Quick
            test_map_chunks_joins_on_raise;
        ] );
    ]
