(* Tests for serialisation: the JSON value library, the analysis report
   export and trace recording. *)

module Json = Mdp_prelude.Json
module Core = Mdp_core
module R = Mdp_runtime
module H = Mdp_scenario.Healthcare

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Json *)

let sample =
  Json.Obj
    [
      ("name", Json.Str "he said \"hi\"\n");
      ("count", Json.int 42);
      ("ratio", Json.Num 0.5);
      ("ok", Json.Bool true);
      ("nothing", Json.Null);
      ("items", Json.List [ Json.int 1; Json.int 2 ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent sample) with
      | Ok parsed -> check bool_ "roundtrip equal" true (parsed = sample)
      | Error e -> Alcotest.fail e)
    [ true; false ]

let test_json_parse_basics () =
  (match Json.of_string {| {"a": [1, 2.5, -3], "b": {"c": null}} |} with
  | Ok v ->
    check bool_ "nested member" true
      (Json.member "b" v |> Option.get |> Json.member "c" = Some Json.Null);
    (match Json.member "a" v with
    | Some (Json.List [ Json.Num a; Json.Num b; Json.Num c ]) ->
      check (Alcotest.float 1e-9) "1" 1.0 a;
      check (Alcotest.float 1e-9) "2.5" 2.5 b;
      check (Alcotest.float 1e-9) "-3" (-3.0) c
    | _ -> Alcotest.fail "list shape")
  | Error e -> Alcotest.fail e);
  check bool_ "member on non-object" true (Json.member "x" (Json.int 1) = None)

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" input)
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

let test_json_escaping () =
  let s = Json.to_string ~indent:false (Json.Str "tab\there") in
  check string_ "escaped tab" "\"tab\\there\"" s

(* ------------------------------------------------------------------ *)
(* Report *)

let analysis () =
  let options = { Core.Generate.default_options with granular_reads = false } in
  Core.Analysis.run ~options ~profile:H.profile_case_a
    ~bindings:[] H.diagram H.policy

let test_report_structure () =
  let a = analysis () in
  let json = Core.Report.analysis a in
  (match Json.member "model" json with
  | Some model ->
    check bool_ "state count present" true
      (Json.member "states" model
      = Some (Json.int (Core.Plts.num_states a.lts)));
    check bool_ "60-variable count" true
      (Json.member "state_variable_pairs" model = Some (Json.int 50))
  | None -> Alcotest.fail "model section missing");
  match Json.member "disclosure" json with
  | Some disclosure -> (
    check bool_ "max level Medium" true
      (Json.member "max_level" disclosure = Some (Json.Str "Medium"));
    match Json.member "findings" disclosure with
    | Some (Json.List findings) ->
      check bool_ "findings exported" true (List.length findings > 0);
      let first = List.hd findings in
      check bool_ "finding has witness" true
        (match Json.member "witness" first with
        | Some (Json.List _) -> true
        | _ -> false)
    | _ -> Alcotest.fail "findings missing")
  | None -> Alcotest.fail "disclosure section missing"

let test_report_parses_back () =
  let a = analysis () in
  match Json.of_string (Core.Report.to_string a) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e

let test_report_pseudonym () =
  let options = { Core.Generate.default_options with granular_reads = true } in
  let a =
    Core.Analysis.run ~options ~bindings:[ H.study_binding ] H.study_diagram
      H.study_policy
  in
  let json = Core.Report.analysis a in
  (match Json.member "model" json with
  | Some model ->
    check bool_ "45 states with risk targets" true
      (Json.member "states" model = Some (Json.int 45));
    check bool_ "93 transitions with risk-transitions" true
      (Json.member "transitions" model = Some (Json.int 93))
  | None -> Alcotest.fail "model section missing");
  match Json.member "pseudonym_risks" json with
  | Some (Json.List rts) ->
    check int_ "all risk transitions exported" (List.length a.pseudonym)
      (List.length rts);
    let violations =
      List.filter_map
        (fun rt ->
          match Json.member "violations" rt with
          | Some (Json.Num v) -> Some (int_of_float v)
          | _ -> None)
        rts
    in
    check bool_ "0/2/4 present" true
      (List.mem 0 violations && List.mem 2 violations && List.mem 4 violations)
  | _ -> Alcotest.fail "pseudonym section missing"

(* ------------------------------------------------------------------ *)
(* Trace *)

let sample_trace u =
  R.Sim.run_exn u
    {
      seed = 3;
      services = [ H.medical_service; H.research_service ];
      snoopers =
        [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ];
    }

let to_lines trace = String.concat "\n" (List.map R.Event.to_line trace)

let test_trace_roundtrip () =
  let u = Core.Universe.make H.diagram H.policy in
  let trace = sample_trace u in
  match R.Trace.of_lines (to_lines trace) with
  | Ok parsed -> check bool_ "roundtrip" true (parsed = trace)
  | Error e -> Alcotest.fail e

let test_trace_rejects_disorder () =
  let e t =
    R.Event.make ~time:t ~kind:Core.Action.Collect ~actor:"A"
      ~fields:[ Mdp_dataflow.Field.make "F" ] ()
  in
  let text = to_lines [ e 2; e 1 ] in
  match R.Trace.of_lines text with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-increasing timestamps accepted"

let test_trace_stats () =
  let u = Core.Universe.make H.diagram H.policy in
  let trace = sample_trace u in
  let s = R.Trace.stats trace in
  check int_ "events" (List.length trace) s.events;
  check int_ "kind counts sum" s.events
    (Mdp_prelude.Listx.sum_by snd s.by_kind);
  check int_ "actor counts sum" s.events
    (Mdp_prelude.Listx.sum_by snd s.by_actor);
  check bool_ "ad-hoc snoops counted" true (s.ad_hoc >= 1);
  check int_ "empty trace" 0 (R.Trace.stats []).events

let () =
  Alcotest.run "serialization"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
        ] );
      ( "report",
        [
          Alcotest.test_case "structure" `Quick test_report_structure;
          Alcotest.test_case "parses back" `Quick test_report_parses_back;
          Alcotest.test_case "pseudonym risks" `Quick test_report_pseudonym;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "rejects disorder" `Quick test_trace_rejects_disorder;
          Alcotest.test_case "stats" `Quick test_trace_stats;
        ] );
    ]
