(* Tests for the anonymisation substrate: values, datasets, hierarchies,
   k-anonymity (checker, Datafly, optimal lattice), Mondrian, l-diversity,
   §III-B value risk (incl. the exact Table I figures), utility metrics,
   re-identification risk and the CSV bridge. Mondrian and value risk run
   on [Columnar], checked against the naive oracles [Naive_mondrian] and
   [Naive_value_risk]. *)

module A = Mdp_anon
module C = A.Columnar
module K = Mdp_release.Kanonymity
module Rel = Mdp_release
module V = A.Value
module Frac = Mdp_prelude.Frac

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let float_ = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Value *)

(* The closeness predicate the oracle states and [Columnar] reproduces. *)
let test_value_close () =
  let close = Naive_value_risk.close in
  check bool_ "ints close" true (close ~closeness:5.0 (V.Int 100) (V.Int 104));
  check bool_ "ints at boundary" true (close ~closeness:5.0 (V.Int 100) (V.Int 105));
  check bool_ "ints far" false (close ~closeness:5.0 (V.Int 100) (V.Int 106));
  check bool_ "int/float mix" true (close ~closeness:0.5 (V.Int 1) (V.Float 1.4));
  check bool_ "strings equal" true (close ~closeness:0.0 (V.Str "x") (V.Str "x"));
  check bool_ "strings differ" false (close ~closeness:9.0 (V.Str "x") (V.Str "y"));
  check bool_ "suppressed close to nothing" false
    (close ~closeness:9.0 V.Suppressed V.Suppressed)

let test_value_strings () =
  check Alcotest.string "interval" "20-30" (V.to_string (V.Interval (20.0, 30.0)));
  check Alcotest.string "suppressed" "*" (V.to_string V.Suppressed);
  check Alcotest.string "float int-like" "80" (V.to_string (V.Float 80.0))

(* ------------------------------------------------------------------ *)
(* Dataset *)

let mini () =
  A.Dataset.make
    ~attrs:
      [
        A.Attribute.make ~name:"Id" ~kind:A.Attribute.Identifier;
        A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi;
        A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive;
      ]
    ~rows:
      [
        [ V.Str "a"; V.Int 1; V.Int 10 ];
        [ V.Str "b"; V.Int 1; V.Int 20 ];
        [ V.Str "c"; V.Int 2; V.Int 30 ];
      ]

let test_dataset_accessors () =
  let d = mini () in
  check int_ "nrows" 3 (A.Dataset.nrows d);
  check int_ "ncols" 3 (A.Dataset.ncols d);
  check int_ "col_index" 1 (A.Dataset.col_index d "Q");
  check (Alcotest.list int_) "quasi idx" [ 1 ] (A.Dataset.quasi_indices d);
  check bool_ "column" true (A.Dataset.column d "S" = [ V.Int 10; V.Int 20; V.Int 30 ]);
  let d' = A.Dataset.drop_identifiers d in
  check int_ "dropped id col" 2 (A.Dataset.ncols d');
  let classes = K.classes_by d ~by:[ 1 ] in
  check (Alcotest.list (Alcotest.list int_)) "classes" [ [ 0; 1 ]; [ 2 ] ] classes

let test_dataset_invalid () =
  (match
     A.Dataset.make
       ~attrs:[ A.Attribute.make ~name:"X" ~kind:A.Attribute.Quasi ]
       ~rows:[ [ V.Int 1; V.Int 2 ] ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged row accepted");
  match
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"X" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"X" ~kind:A.Attribute.Quasi;
        ]
      ~rows:[]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate attr accepted"

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let test_numeric_hierarchy () =
  let h = A.Hierarchy.numeric ~widths:[ 10.0; 20.0 ] () in
  check int_ "nlevels" 3 (A.Hierarchy.nlevels h);
  check bool_ "level0 identity" true
    (A.Hierarchy.generalise h ~level:0 (V.Int 35) = V.Int 35);
  check bool_ "level1 decade" true
    (A.Hierarchy.generalise h ~level:1 (V.Int 35) = V.Interval (30.0, 40.0));
  check bool_ "level2 score" true
    (A.Hierarchy.generalise h ~level:2 (V.Int 35) = V.Interval (20.0, 40.0));
  check bool_ "top suppresses" true
    (A.Hierarchy.generalise h ~level:3 (V.Int 35) = V.Suppressed);
  check bool_ "non-numeric suppressed" true
    (A.Hierarchy.generalise h ~level:1 (V.Str "x") = V.Suppressed);
  Alcotest.check_raises "level out of range"
    (Invalid_argument "Hierarchy.generalise: bad level") (fun () ->
      ignore (A.Hierarchy.generalise h ~level:4 (V.Int 1)))

let test_hierarchy_invalid () =
  (match A.Hierarchy.numeric ~widths:[ 10.0; 5.0 ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing widths accepted");
  match A.Hierarchy.numeric ~widths:[ -1.0 ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative width accepted"

(* ------------------------------------------------------------------ *)
(* k-anonymity *)

let table1 = Mdp_scenario.Healthcare.table1_released

let test_kanon_checker () =
  check bool_ "table1 is 2-anonymous" true (K.is_k_anonymous ~k:2 table1);
  check bool_ "table1 not 3-anonymous" false (K.is_k_anonymous ~k:3 table1);
  check int_ "min class size" 2 (K.min_class_size table1);
  check int_ "three classes" 3 (List.length (K.classes table1))

let test_datafly_reaches_k () =
  let raw = A.Dataset.drop_identifiers Mdp_scenario.Healthcare.table1_raw in
  match K.datafly ~k:2 raw Mdp_scenario.Healthcare.table1_scheme with
  | Ok (ds, levels, suppressed) ->
    check bool_ "result 2-anonymous" true (K.is_k_anonymous ~k:2 ds);
    check int_ "no suppression needed" 0 suppressed;
    check bool_ "levels at most max" true
      (List.for_all (fun (_, l) -> l <= 3) levels)
  | Error e -> Alcotest.fail e

let test_datafly_with_suppression () =
  (* An outlier row that no generalisation groups: needs suppression. *)
  let ds =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive;
        ]
      ~rows:
        [
          [ V.Str "x"; V.Int 1 ];
          [ V.Str "x"; V.Int 2 ];
          [ V.Str "y"; V.Int 3 ];
        ]
  in
  let scheme = [ ("Q", A.Hierarchy.numeric ~widths:[ 1.0 ] ()) ] in
  (* The string column cannot be binned, so level 1 already suppresses
     it and makes everything one class: k=2 is reachable without
     suppression... *)
  (match K.datafly ~k:2 ds scheme with
  | Ok (out, _, suppressed) ->
    check bool_ "2-anonymous" true (K.is_k_anonymous ~k:2 out);
    check int_ "rows kept" (3 - suppressed) (A.Dataset.nrows out)
  | Error e -> Alcotest.fail e);
  (* ...but k=4 is unreachable even fully generalised. *)
  match K.datafly ~k:4 ds scheme with
  | Error _ -> ()
  | Ok (_, _, _) -> Alcotest.fail "expected failure at k=4"

let test_optimal_minimal () =
  let raw = A.Dataset.drop_identifiers Mdp_scenario.Healthcare.table1_raw in
  match K.optimal ~k:2 raw Mdp_scenario.Healthcare.table1_scheme with
  | Some (ds, levels) ->
    check bool_ "optimal is 2-anonymous" true (K.is_k_anonymous ~k:2 ds);
    let total = Mdp_prelude.Listx.sum_by snd levels in
    check int_ "minimal total level" 2 total
  | None -> Alcotest.fail "no lattice point found"

let prop_datafly_k_anonymous =
  QCheck.Test.make ~name:"datafly output is k-anonymous" ~count:40
    QCheck.(pair (int_range 2 4) (int_range 10 60))
    (fun (k, rows) ->
      let ds = Mdp_scenario.Synthetic.dataset ~seed:(k * rows) ~rows ~quasi:2 in
      let scheme = Mdp_scenario.Synthetic.scheme_for ~quasi:2 in
      match K.datafly ~k ~max_suppression:0.3 ds scheme with
      | Ok (out, _, _) -> K.is_k_anonymous ~k out
      | Error _ -> true (* allowed to fail; must not lie *))

(* ------------------------------------------------------------------ *)
(* Mondrian *)

let mondrian ~k ds = Result.map C.source (C.mondrian_release ~k (C.compile ds))

let test_mondrian () =
  let ds = Mdp_scenario.Synthetic.dataset ~seed:5 ~rows:100 ~quasi:2 in
  match mondrian ~k:5 ds with
  | Ok out ->
    check bool_ "5-anonymous" true (K.is_k_anonymous ~k:5 out);
    check int_ "row count preserved" 100 (A.Dataset.nrows out);
    (* Generalised cells must cover the original values. *)
    let covers gen raw =
      match (gen, V.numeric raw) with
      | V.Suppressed, _ -> true
      | V.Interval (lo, hi), Some x -> lo <= x && x < hi
      | g, _ -> g = raw
    in
    let q0 = A.Dataset.col_index ds "Q0" in
    for r = 0 to 99 do
      if
        not
          (covers (A.Dataset.get out ~row:r ~col:q0) (A.Dataset.get ds ~row:r ~col:q0))
      then Alcotest.failf "row %d not covered" r
    done
  | Error e -> Alcotest.fail e

let test_mondrian_errors () =
  (match mondrian ~k:10 (Mdp_scenario.Synthetic.dataset ~seed:1 ~rows:5 ~quasi:1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k larger than dataset accepted");
  let non_numeric =
    A.Dataset.make
      ~attrs:[ A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi ]
      ~rows:[ [ V.Str "x" ]; [ V.Str "y" ] ]
  in
  match mondrian ~k:2 non_numeric with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric quasi accepted"

let prop_mondrian_k_anonymous =
  QCheck.Test.make ~name:"mondrian output is k-anonymous" ~count:30
    QCheck.(pair (int_range 2 6) (int_range 20 80))
    (fun (k, rows) ->
      let ds = Mdp_scenario.Synthetic.dataset ~seed:(k + rows) ~rows ~quasi:2 in
      match mondrian ~k ds with
      | Ok out -> K.is_k_anonymous ~k out
      | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* l-diversity *)

let test_ldiversity () =
  check int_ "table1 distinct l" 2 (Rel.Ldiv.distinct table1 ~sensitive:"Weight")

let test_ldiversity_constant_class () =
  let ds =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive;
        ]
      ~rows:[ [ V.Int 1; V.Int 9 ]; [ V.Int 1; V.Int 9 ] ]
  in
  check int_ "constant class l=1" 1 (Rel.Ldiv.distinct ds ~sensitive:"S")

(* ------------------------------------------------------------------ *)
(* Value risk: the paper's Table I, exactly *)

let policy = Mdp_scenario.Healthcare.value_policy

let table1_plan = C.compile table1

let risks fields_read =
  let r = C.value_risk_assess table1_plan ~fields_read policy in
  (List.map (fun (s : A.Value_risk.score) -> Frac.to_string s.risk) r.scores, r.violations)

let test_table1_height () =
  let rs, v = risks [ "Height" ] in
  check (Alcotest.list Alcotest.string) "height risks"
    [ "2/4"; "2/4"; "2/4"; "2/4"; "1/2"; "1/2" ] rs;
  check int_ "0 violations" 0 v

let test_table1_age () =
  let rs, v = risks [ "Age" ] in
  check (Alcotest.list Alcotest.string) "age risks"
    [ "2/2"; "2/2"; "3/4"; "3/4"; "1/4"; "3/4" ] rs;
  check int_ "2 violations" 2 v

let test_table1_age_height () =
  let rs, v = risks [ "Age"; "Height" ] in
  check (Alcotest.list Alcotest.string) "age+height risks"
    [ "2/2"; "2/2"; "2/2"; "2/2"; "1/2"; "1/2" ] rs;
  check int_ "4 violations" 4 v

let test_value_risk_no_fields_read () =
  let r = C.value_risk_assess table1_plan ~fields_read:[] policy in
  (* One set of six records. *)
  List.iter
    (fun (s : A.Value_risk.score) -> check int_ "den 6" 6 s.risk.Frac.den)
    r.scores;
  check int_ "no violations" 0 r.violations

let test_value_risk_sweep () =
  let reports = C.value_risk_sweep table1_plan policy in
  check int_ "3 subsets of 2 quasi attrs" 3 (List.length reports);
  (* ordered by subset size *)
  check int_ "singletons first" 1
    (List.length (List.hd reports).A.Value_risk.fields_read)

let prop_value_risk_bounds =
  QCheck.Test.make ~name:"value risk in (0,1], never empty sets" ~count:40
    QCheck.(int_range 10 80)
    (fun rows ->
      let ds = Mdp_scenario.Synthetic.dataset ~seed:rows ~rows ~quasi:2 in
      let p = { A.Value_risk.sensitive = "S"; closeness = 5.0; confidence = 0.9 } in
      let r = C.value_risk_assess (C.compile ds) ~fields_read:[ "Q0" ] p in
      List.for_all
        (fun (s : A.Value_risk.score) ->
          s.risk.Frac.num >= 1 (* own value is always close to itself *)
          && s.risk.Frac.num <= s.risk.Frac.den)
        r.scores)

let prop_value_risk_monotone_in_fields =
  (* Reading more quasi fields weakly increases each record's risk:
     finer partitions shrink the sets around each record. *)
  QCheck.Test.make ~name:"value risk monotone in fields_read" ~count:30
    QCheck.(int_range 10 60)
    (fun rows ->
      let ds = Mdp_scenario.Synthetic.dataset ~seed:(rows * 3) ~rows ~quasi:2 in
      let p = { A.Value_risk.sensitive = "S"; closeness = 5.0; confidence = 0.9 } in
      let plan = C.compile ds in
      let r1 = C.value_risk_assess plan ~fields_read:[ "Q0" ] p in
      let r2 = C.value_risk_assess plan ~fields_read:[ "Q0"; "Q1" ] p in
      List.for_all2
        (fun (a : A.Value_risk.score) (b : A.Value_risk.score) ->
          Frac.to_float b.risk >= Frac.to_float a.risk -. 1e-9)
        r1.scores r2.scores)

(* ------------------------------------------------------------------ *)
(* Utility *)

let test_utility_means () =
  let raw = A.Dataset.drop_identifiers Mdp_scenario.Healthcare.table1_raw in
  (* Weight survives generalisation untouched. *)
  check (Alcotest.option float_) "weight mean drift" (Some 0.0)
    (Rel.Utility.mean_drift ~original:raw ~release:table1 "Weight");
  (* Age becomes interval midpoints: drift bounded by half the band. *)
  match Rel.Utility.mean_drift ~original:raw ~release:table1 "Age" with
  | Some d -> check bool_ "age drift bounded" true (d <= 5.0)
  | None -> Alcotest.fail "age mean should exist"

let test_utility_discernibility () =
  check int_ "discernibility of table1" 12 (Rel.Utility.discernibility table1);
  check float_ "avg class size" 2.0 (Rel.Utility.avg_class_size table1)

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_csv_roundtrip () =
  let text = A.Csv.render table1 in
  match
    A.Csv.parse
      ~kinds:
        [
          ("Age", A.Attribute.Quasi);
          ("Height", A.Attribute.Quasi);
          ("Weight", A.Attribute.Sensitive);
        ]
      text
  with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    check int_ "rows" 6 (A.Dataset.nrows ds);
    check bool_ "interval survived" true
      (A.Dataset.get ds ~row:0 ~col:0 = V.Interval (30.0, 40.0));
    check bool_ "ints survived" true
      (A.Dataset.get ds ~row:0 ~col:2 = V.Int 100)

let test_csv_errors () =
  (match A.Csv.parse ~kinds:[] "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted");
  match A.Csv.parse ~kinds:[] "a,b\n1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ragged accepted"

(* ------------------------------------------------------------------ *)
(* Release gate *)

let test_release_gate_accepts_and_rejects () =
  let raw = A.Dataset.drop_identifiers Mdp_scenario.Healthcare.table1_raw in
  let release = table1 in
  (* k alone: accepted. *)
  let base = Rel.Release_gate.default ~k:2 in
  let v = Rel.Release_gate.evaluate ~original:raw ~release base in
  check bool_ "k=2 accepted" true v.accepted;
  (* k=3: rejected with a message. *)
  let v3 = Rel.Release_gate.evaluate ~original:raw ~release { base with k = 3 } in
  check bool_ "k=3 rejected" false v3.accepted;
  check int_ "one failure" 1 (List.length v3.failures);
  (* l-diversity and value risk together: the Table-I release fails the
     value-risk criterion at the paper's thresholds. *)
  let strict =
    {
      base with
      l = Some 2;
      max_violation_ratio = Some 0.5;
      value_policy = Some Mdp_scenario.Healthcare.value_policy;
    }
  in
  let vs = Rel.Release_gate.evaluate ~original:raw ~release strict in
  check bool_ "value risk trips the gate" false vs.accepted;
  check bool_ "failure names the read set" true
    (List.exists
       (fun m ->
         String.length m > 10
         && (let rec contains i =
               i + 3 <= String.length m
               && (String.sub m i 3 = "Age" || contains (i + 1))
             in
             contains 0))
       vs.failures)

let test_release_gate_utility () =
  let raw = A.Dataset.drop_identifiers Mdp_scenario.Healthcare.table1_raw in
  (* The release keeps Weight raw: zero drift, so a tight bound passes. *)
  let criteria =
    { (Rel.Release_gate.default ~k:2) with max_mean_drift = Some 0.001 }
  in
  let v = Rel.Release_gate.evaluate ~original:raw ~release:table1 criteria in
  check bool_ "no drift on raw sensitive column" true v.accepted;
  (* Misconfiguration is itself a failure. *)
  let bad =
    { (Rel.Release_gate.default ~k:2) with max_violation_ratio = Some 0.5 }
  in
  let vb = Rel.Release_gate.evaluate ~original:raw ~release:table1 bad in
  check bool_ "ratio without policy rejected" false vb.accepted

(* ------------------------------------------------------------------ *)
(* Columnar engine: parity with the naive oracles *)

let seeds = [ 3; 17; 23 ]
let parity_ds seed = Mdp_scenario.Synthetic.dataset ~seed ~rows:400 ~quasi:3

let release_cells ~k ds =
  Result.map
    (fun plan -> A.Dataset.rows (C.source plan))
    (C.mondrian_release ~k (C.compile ds))

let naive_cells ~k ds = Result.map A.Dataset.rows (Naive_mondrian.anonymise ~k ds)

let test_columnar_mondrian_parity () =
  (* The 40,000-row input grows a deep partition tree. *)
  let inputs =
    List.map
      (fun seed -> (seed, Mdp_scenario.Synthetic.dataset ~seed ~rows:600 ~quasi:2))
      seeds
    @ [ (5, Mdp_scenario.Synthetic.dataset ~seed:5 ~rows:40_000 ~quasi:2) ]
  in
  List.iter
    (fun (seed, ds) ->
      List.iter
        (fun k ->
          check bool_
            (Printf.sprintf "release seed %d rows %d k %d" seed
               (A.Dataset.nrows ds) k)
            true
            (naive_cells ~k ds = release_cells ~k ds))
        [ 2; 7; 25 ])
    inputs

let test_columnar_mondrian_errors () =
  (* Too few rows: identical error text. *)
  let small = Mdp_scenario.Synthetic.dataset ~seed:1 ~rows:5 ~quasi:1 in
  check bool_ "fewer-rows error" true
    (naive_cells ~k:10 small = release_cells ~k:10 small);
  (* Non-numeric quasi: same first offending cell in row-major order,
     even with several bad cells across columns. *)
  let mixed =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Q0" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"Q1" ~kind:A.Attribute.Quasi;
        ]
      ~rows:
        [
          [ V.Int 1; V.Int 2 ];
          [ V.Int 3; V.Str "x" ];
          [ V.Str "y"; V.Str "z" ];
        ]
  in
  check bool_ "non-numeric error" true
    (naive_cells ~k:1 mixed = release_cells ~k:1 mixed)

(* Runs [f], failing instead of hanging when it outlives [seconds]. *)
let within ~seconds f =
  let old =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "timed out"))
  in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

let test_mondrian_k_below_1 () =
  (* Age's median equals its minimum, so the strictly-less side of the
     split is empty: with k < 1 that "keeps k rows" and the same range
     would split forever. Both engines refuse k < 1 instead. *)
  let ds =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Age" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"W" ~kind:A.Attribute.Sensitive;
        ]
      ~rows:
        [
          [ V.Int 1; V.Int 10 ];
          [ V.Int 1; V.Int 11 ];
          [ V.Int 1; V.Int 12 ];
          [ V.Int 2; V.Int 13 ];
        ]
  in
  List.iter
    (fun k ->
      let expected = Error "mondrian: k must be at least 1" in
      check bool_
        (Printf.sprintf "naive k %d" k)
        true
        (within ~seconds:2 (fun () -> naive_cells ~k ds) = expected);
      check bool_
        (Printf.sprintf "columnar k %d" k)
        true
        (within ~seconds:2 (fun () -> release_cells ~k ds) = expected))
    [ 0; -3 ]

let policy_s = { A.Value_risk.sensitive = "S"; closeness = 5.0; confidence = 0.9 }

let test_columnar_analyses_parity () =
  let same what d p fields_read =
    check bool_ what true
      (Naive_value_risk.assess d ~fields_read p
      = C.value_risk_assess (C.compile d) ~fields_read p)
  in
  (* Fresh compiles: of the raw data and of the naive release. The sweep
     covers the non-empty read sets; the empty one is what Fig. 4's
     read {} transitions assess. *)
  List.iter
    (fun seed ->
      let ds = parity_ds seed in
      let release = Result.get_ok (Naive_mondrian.anonymise ~k:10 ds) in
      List.iter
        (fun (what, d) ->
          check bool_
            (Printf.sprintf "value risk sweep seed %d %s" seed what)
            true
            (Naive_value_risk.sweep d policy_s = C.value_risk_sweep (C.compile d) policy_s);
          same (Printf.sprintf "empty read set seed %d %s" seed what) d policy_s [])
        [ ("raw", ds); ("release", release) ])
    seeds;
  List.iter
    (fun rows ->
      same
        (Printf.sprintf "empty read set on %d rows" rows)
        (Mdp_scenario.Synthetic.dataset ~seed:rows ~rows ~quasi:3)
        policy_s [])
    [ 0; 1; 50 ];
  (* Table I's read sets, and the empty one. *)
  List.iter
    (fun fields_read ->
      same
        (Printf.sprintf "table1 {%s}" (String.concat ", " fields_read))
        table1 policy fields_read)
    [ []; [ "Height" ]; [ "Age" ]; [ "Age"; "Height" ] ]

let test_columnar_categorical_parity () =
  (* Categorical sensitive column: code-counted value risk, including a
     Suppressed cell, on a fresh compile and on the seeded release. *)
  let ds =
    A.Dataset.make
      ~attrs:
        [
          A.Attribute.make ~name:"Q" ~kind:A.Attribute.Quasi;
          A.Attribute.make ~name:"S" ~kind:A.Attribute.Sensitive;
        ]
      ~rows:
        [
          [ V.Int 1; V.Str "flu" ];
          [ V.Int 1; V.Str "cold" ];
          [ V.Int 2; V.Str "flu" ];
          [ V.Int 2; V.Str "flu" ];
          [ V.Int 3; V.Suppressed ];
          [ V.Int 3; V.Str "cold" ];
        ]
  in
  let p = { A.Value_risk.sensitive = "S"; closeness = 0.0; confidence = 0.5 } in
  check bool_ "categorical value risk" true
    (Naive_value_risk.sweep ds p = C.value_risk_sweep (C.compile ds) p);
  let naive_rel = Result.get_ok (Naive_mondrian.anonymise ~k:2 ds) in
  let rplan = Result.get_ok (C.mondrian_release ~k:2 (C.compile ds)) in
  check bool_ "categorical value risk on the seeded release" true
    (Naive_value_risk.sweep naive_rel p = C.value_risk_sweep rplan p)

let test_columnar_release_plan () =
  (* [mondrian_release]'s seeded dictionaries must give the value-risk
     sweep the naive engine computes on the naive release. *)
  List.iter
    (fun seed ->
      let ds = parity_ds seed in
      let plan = C.compile ds in
      List.iter
        (fun k ->
          let naive_rel = Result.get_ok (Naive_mondrian.anonymise ~k ds) in
          let rplan = Result.get_ok (C.mondrian_release ~k plan) in
          check bool_
            (Printf.sprintf "seeded sweep seed %d k %d" seed k)
            true
            (Naive_value_risk.sweep naive_rel policy_s
            = C.value_risk_sweep rplan policy_s))
        [ 2; 10 ])
    seeds

(* ------------------------------------------------------------------ *)
(* Hostile CSV input *)

let test_csv_hostile_header () =
  let rejects what ~kinds text =
    match A.Csv.parse ~kinds text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  let q = [ ("Age", A.Attribute.Quasi) ] in
  rejects "trailing comma" ~kinds:q "Age,W,\n1,10,\n";
  rejects "empty name" ~kinds:[] "Age,,W\n1,2,3\n";
  rejects "duplicate name" ~kinds:q "Age,Age\n1,10\n";
  rejects "kinds column not in header" ~kinds:[ ("Nope", A.Attribute.Sensitive) ]
    "Age,W\n1,10\n";
  rejects "column given two kinds"
    ~kinds:[ ("Age", A.Attribute.Quasi); ("Age", A.Attribute.Sensitive) ]
    "Age,W\n1,10\n"

(* Untrusted CSVs never raise: the sample microdata, mutated by byte
   flips, inserted separators, quotes and suppression marks, and
   truncation, either parse or are refused with an [Error]; whatever
   parses runs through the [mdpriv anon] pipeline without raising. *)
let prop_csv_mutations_never_raise =
  let sample = In_channel.with_open_bin "../data/sample_health.csv" In_channel.input_all in
  let kinds =
    [
      ("Age", A.Attribute.Quasi);
      ("Height", A.Attribute.Quasi);
      ("Weight", A.Attribute.Sensitive);
    ]
  in
  let policy = { A.Value_risk.sensitive = "Weight"; closeness = 5.0; confidence = 0.9 } in
  let mutate text ops =
    List.fold_left
      (fun s (kind, pos, x) ->
        let n = String.length s in
        let p = if n = 0 then 0 else pos mod (n + 1) in
        let insert c = String.sub s 0 p ^ String.make 1 c ^ String.sub s p (n - p) in
        match kind mod 3 with
        | 0 when p < n ->
          String.sub s 0 p
          ^ String.make 1 (Char.chr (Char.code s.[p] lxor (1 lsl (x mod 8))))
          ^ String.sub s (p + 1) (n - p - 1)
        | 1 -> insert ",\n\"*".[x mod 4]
        | 2 -> String.sub s 0 p
        | _ -> s)
      text ops
  in
  let gen = QCheck.Gen.(map (mutate sample) (list_size (1 -- 6) (triple nat nat nat))) in
  QCheck.Test.make ~count:2000 ~name:"mutated CSVs never raise"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun text ->
      let anon () =
        match A.Csv.parse ~kinds text with
        | Error _ -> ()
        | Ok ds ->
          List.iter
            (fun k ->
              match C.mondrian_release ~k (C.compile ds) with
              | Error _ -> ()
              | Ok rplan -> ignore (C.value_risk_sweep rplan policy))
            [ 1; 2; 3 ]
      in
      Result.is_ok (A.Csv.parse ~kinds sample)
      &&
      match anon () with
      | () -> true
      | exception exn ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string exn) text)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "anon"
    [
      ( "value",
        [
          Alcotest.test_case "close" `Quick test_value_close;
          Alcotest.test_case "to_string" `Quick test_value_strings;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "accessors" `Quick test_dataset_accessors;
          Alcotest.test_case "invalid" `Quick test_dataset_invalid;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "numeric" `Quick test_numeric_hierarchy;
          Alcotest.test_case "invalid" `Quick test_hierarchy_invalid;
        ] );
      ( "kanon",
        [
          Alcotest.test_case "checker" `Quick test_kanon_checker;
          Alcotest.test_case "datafly reaches k" `Quick test_datafly_reaches_k;
          Alcotest.test_case "datafly suppression" `Quick test_datafly_with_suppression;
          Alcotest.test_case "optimal minimal" `Quick test_optimal_minimal;
          qtest prop_datafly_k_anonymous;
        ] );
      ( "mondrian",
        [
          Alcotest.test_case "partitions" `Quick test_mondrian;
          Alcotest.test_case "errors" `Quick test_mondrian_errors;
          qtest prop_mondrian_k_anonymous;
        ] );
      ( "ldiversity",
        [
          Alcotest.test_case "table1" `Quick test_ldiversity;
          Alcotest.test_case "constant class" `Quick test_ldiversity_constant_class;
        ] );
      ( "value-risk (Table I)",
        [
          Alcotest.test_case "height column" `Quick test_table1_height;
          Alcotest.test_case "age column" `Quick test_table1_age;
          Alcotest.test_case "age+height column" `Quick test_table1_age_height;
          Alcotest.test_case "empty fields_read" `Quick test_value_risk_no_fields_read;
          Alcotest.test_case "sweep" `Quick test_value_risk_sweep;
          qtest prop_value_risk_bounds;
          qtest prop_value_risk_monotone_in_fields;
        ] );
      ( "utility",
        [
          Alcotest.test_case "means" `Quick test_utility_means;
          Alcotest.test_case "discernibility" `Quick test_utility_discernibility;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "mondrian parity" `Quick test_columnar_mondrian_parity;
          Alcotest.test_case "mondrian errors" `Quick test_columnar_mondrian_errors;
          Alcotest.test_case "mondrian k below 1" `Quick test_mondrian_k_below_1;
          Alcotest.test_case "analyses parity" `Quick test_columnar_analyses_parity;
          Alcotest.test_case "categorical parity" `Quick
            test_columnar_categorical_parity;
          Alcotest.test_case "seeded release plan" `Quick
            test_columnar_release_plan;
        ] );
      ( "release gate",
        [
          Alcotest.test_case "accept/reject" `Quick test_release_gate_accepts_and_rejects;
          Alcotest.test_case "utility" `Quick test_release_gate_utility;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "errors" `Quick test_csv_errors;
          Alcotest.test_case "hostile header" `Quick test_csv_hostile_header;
          qtest prop_csv_mutations_never_raise;
        ] );
    ]
