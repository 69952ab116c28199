(* Tests for the model-description language: lexer, parser, printer and
   the print->parse round-trip property over all bundled scenarios. *)

module P = Mdp_dsl.Parser
module Printer = Mdp_dsl.Printer
module Lexer = Mdp_dsl.Lexer
module Token = Mdp_dsl.Token

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Lexer *)

let tokens_of s =
  match Lexer.tokenize s with
  | Ok toks -> List.map (fun (t : Token.located) -> t.token) toks
  | Error e -> Alcotest.fail e

let test_lexer_basics () =
  check int_ "empty input is just Eof" 1 (List.length (tokens_of ""));
  let toks = tokens_of "actor Bob roles [a b] # comment\n1: x -> y" in
  check bool_ "idents and punctuation" true
    (toks
    = [
        Token.Ident "actor"; Token.Ident "Bob"; Token.Ident "roles";
        Token.Lbracket; Token.Ident "a"; Token.Ident "b"; Token.Rbracket;
        Token.Int 1; Token.Colon; Token.Ident "x"; Token.Arrow; Token.Ident "y";
        Token.Eof;
      ])

let test_lexer_strings_and_fields () =
  check bool_ "string token" true
    (tokens_of {|"hello world"|} = [ Token.String "hello world"; Token.Eof ]);
  check bool_ "escaped quote" true
    (tokens_of {|"a\"b"|} = [ Token.String {|a"b|}; Token.Eof ]);
  check bool_ "anon field is one token" true
    (tokens_of "Weight~anon" = [ Token.Ident "Weight~anon"; Token.Eof ]);
  check bool_ "digit-led ident" true
    (tokens_of "2fast" = [ Token.Ident "2fast"; Token.Eof ])

let test_lexer_errors () =
  (match Lexer.tokenize "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string accepted");
  match Lexer.tokenize "a ! b" with
  | Error msg ->
    check bool_ "line number reported" true
      (String.length msg >= 6 && String.sub msg 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "bad character accepted"

(* ------------------------------------------------------------------ *)
(* Parser *)

let minimal_model =
  {|
  actor Alice roles [staff]
  actor Bob
  store D { schema S { F G } }
  anonstore AD { schema AS { F~anon } }
  service Svc {
    1: User -> Alice [F G] "intake"
    2: Alice -> D [F G]
    3: Alice -> AD [F]
    4: D -> Bob [G] "review"
  }
  hierarchy senior > staff
  allow actor:Alice read write on D
  allow actor:Alice write on AD
  allow role:staff read on D [G]
  deny actor:Bob read delete on D [F]
  |}

let parse_ok s =
  match P.parse s with Ok m -> m | Error e -> Alcotest.fail e

let test_parse_minimal () =
  let m = parse_ok minimal_model in
  let d = m.P.diagram in
  check int_ "actors" 2 (List.length d.Mdp_dataflow.Diagram.actors);
  check int_ "stores" 2 (List.length d.Mdp_dataflow.Diagram.datastores);
  check int_ "services" 1 (List.length d.Mdp_dataflow.Diagram.services);
  let svc = List.hd d.Mdp_dataflow.Diagram.services in
  check int_ "flows" 4 (List.length svc.Mdp_dataflow.Service.flows);
  let flow2 = List.nth svc.Mdp_dataflow.Service.flows 1 in
  check Alcotest.string "default purpose is the service id" "Svc"
    flow2.Mdp_dataflow.Flow.purpose;
  check int_ "policy entries" 4
    (List.length m.P.policy.Mdp_policy.Policy.entries);
  (* role hierarchy took effect: Alice (staff) reads G via the role
     grant; a senior-role holder would too. *)
  check bool_ "role grant applies" true
    (Mdp_policy.Policy.allows m.P.policy ~diagram:d ~actor:"Alice"
       Mdp_policy.Permission.Read ~store:"D" (Mdp_dataflow.Field.make "G"))

let expect_parse_error ?(substring = "") s =
  match P.parse s with
  | Ok _ -> Alcotest.failf "parse succeeded unexpectedly: %s" s
  | Error msg ->
    if substring <> "" then begin
      let contains hay needle =
        let hn = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains msg substring) then
        Alcotest.failf "error %S does not mention %S" msg substring
    end

let test_parse_errors () =
  expect_parse_error ~substring:"expected" "actor";
  expect_parse_error ~substring:"line" "service S { oops }";
  expect_parse_error ~substring:"unknown permission"
    "actor A\nstore D { schema S { F } }\nallow actor:A fly on D";
  expect_parse_error ~substring:"subject"
    "store D { schema S { F } }\nallow wizard:A read on D";
  (* validation failures surface too: unknown flow endpoint *)
  expect_parse_error ~substring:"unknown"
    "actor A\nservice S { 1: Ghost -> A [F] }";
  (* and policy validation *)
  expect_parse_error ~substring:"unknown actor"
    "actor A\nstore D { schema S { F } }\nallow actor:Ghost read on D";
  (* and RBAC cycles *)
  expect_parse_error ~substring:"cycle"
    "actor A\nhierarchy a > b\nhierarchy b > a"

(* ------------------------------------------------------------------ *)
(* Printer round-trips *)

let roundtrip name (m : P.model) =
  let text = Printer.to_string m in
  match P.parse text with
  | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
  | Ok m2 ->
    check Alcotest.string
      (name ^ " print/parse/print fixpoint")
      text (Printer.to_string m2)

let test_roundtrip_scenarios () =
  roundtrip "healthcare"
    {
      P.diagram = Mdp_scenario.Healthcare.diagram;
      policy = Mdp_scenario.Healthcare.policy;
      placement = None;
    };
  roundtrip "study"
    {
      P.diagram = Mdp_scenario.Healthcare.study_diagram;
      policy = Mdp_scenario.Healthcare.study_policy;
      placement = None;
    };
  roundtrip "smart home"
    {
      P.diagram = Mdp_scenario.Smart_home.diagram;
      policy = Mdp_scenario.Smart_home.policy;
      placement = None;
    };
  roundtrip "minimal" (parse_ok minimal_model)

let prop_roundtrip_synthetic =
  QCheck.Test.make ~name:"synthetic models round-trip" ~count:25
    QCheck.(int_range 1 500)
    (fun seed ->
      let spec =
        {
          Mdp_scenario.Synthetic.seed;
          nactors = 3;
          nfields = 3;
          nstores = 2;
          nservices = 2;
          flows_per_service = 3;
        }
      in
      let diagram, policy = Mdp_scenario.Synthetic.model spec in
      let m = { P.diagram; policy; placement = None } in
      let text = Printer.to_string m in
      match P.parse text with
      | Error _ -> false
      | Ok m2 -> Printer.to_string m2 = text)

let deployed_model =
  minimal_model
  ^ {|
  node main region EU
  node edge region US
  place actor:Alice on main
  place actor:Bob on edge
  place store:D on main
  place store:AD on edge
  |}

let test_placement_parses_and_roundtrips () =
  let m = parse_ok deployed_model in
  (match m.P.placement with
  | None -> Alcotest.fail "placement missing"
  | Some p ->
    check int_ "two nodes" 2 (List.length p.nodes);
    check int_ "two actors placed" 2 (List.length p.actor_nodes);
    check int_ "two stores placed" 2 (List.length p.store_nodes));
  roundtrip "deployed" m

let test_placement_errors () =
  expect_parse_error ~substring:"undeclared node"
    "actor A\nplace actor:A on nowhere";
  expect_parse_error ~substring:"duplicate node"
    "node n region EU\nnode n region US";
  expect_parse_error ~substring:"not in the model"
    "actor A\nnode n region EU\nplace actor:Ghost on n"

let test_parsed_model_analyses () =
  (* A parsed model feeds the full pipeline. *)
  let m = parse_ok minimal_model in
  let u = Mdp_core.Universe.make m.P.diagram m.P.policy in
  let lts = Mdp_core.Generate.run u in
  check bool_ "pipeline runs on parsed model" true
    (Mdp_core.Plts.num_states lts > 1)

(* Regressions: invalid flows are refused with a line-numbered error
   instead of an escaped exception. *)
let test_parse_invalid_flows () =
  let model flows =
    "actor Doctor\nstore EHR { schema R { Name Diagnosis } }\nservice S {\n"
    ^ flows ^ "\n}"
  in
  expect_parse_error ~substring:"line 5: duplicate flow order 1"
    (model "1: User -> Doctor [Name]\n1: Doctor -> EHR [Name]");
  expect_parse_error ~substring:"line 4: Flow.make: duplicate field Name"
    (model "1: User -> Doctor [Name Name]");
  expect_parse_error ~substring:"line 4: Flow.make: no fields"
    (model "1: User -> Doctor []");
  expect_parse_error ~substring:"line 4: Flow.make: endpoint pattern"
    (model "1: Doctor -> Doctor [Name]");
  expect_parse_error ~substring:"line 4: number too large"
    (model "99999999999999999999: User -> Doctor [Name]")

(* Untrusted model text never raises: the bundled models, mutated by
   character edits, inserted tokens (an overlong number among them),
   duplicated lines and swapped words, either parse or are refused with
   an [Error]. *)
let prop_parse_never_raises =
  (* the test runs in _build/default/test under [dune test] *)
  let dir = if Sys.file_exists "../models" then "../models" else "models" in
  let seeds =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mdp")
    |> List.sort String.compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
  in
  let pieces =
    [| "{"; "}"; "["; "]"; ":"; ">"; "->"; "\""; "#"; "\n"; " "; "0"; "7";
       "99999999999999999999"; "a"; "Z"; "~anon" |]
  in
  let is_word c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '~' | '.' -> true
    | _ -> false
  in
  let splice s p q ins = String.sub s 0 p ^ ins ^ String.sub s q (String.length s - q) in
  let mutate text ops =
    List.fold_left
      (fun s (kind, pos, k) ->
        let n = String.length s in
        let p = if n = 0 then 0 else pos mod n in
        let piece = pieces.(k mod Array.length pieces) in
        match kind mod 5 with
        | 0 -> splice s p p piece
        | 1 when n > 0 -> splice s p (p + 1) ""
        | 2 when n > 0 -> splice s p (p + 1) piece
        | 3 when n > 0 ->
          (* duplicate the line holding [p] *)
          let start =
            if p = 0 then 0
            else try String.rindex_from s (p - 1) '\n' + 1 with Not_found -> 0
          in
          let stop = try String.index_from s p '\n' with Not_found -> n in
          splice s start start (String.sub s start (stop - start) ^ "\n")
        | 4 when n > 0 && is_word s.[p] ->
          (* replace the word at [p] by another word of the text *)
          let words =
            String.split_on_char ' '
              (String.map (fun c -> if is_word c then c else ' ') s)
            |> List.filter (( <> ) "")
          in
          let w = List.nth words (k mod List.length words) in
          let rec left i = if i > 0 && is_word s.[i - 1] then left (i - 1) else i in
          let rec right i = if i < n && is_word s.[i] then right (i + 1) else i in
          splice s (left p) (right p) w
        | _ -> s ^ piece)
      text ops
  in
  let gen =
    QCheck.Gen.(
      map2 mutate (oneofl seeds)
        (list_size (1 -- 4) (triple nat nat nat)))
  in
  QCheck.Test.make ~count:1000 ~name:"mutated models never raise"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun text ->
      match P.parse text with
      | Ok _ | Error _ -> true
      | exception exn ->
        QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string exn))

let () =
  Alcotest.run "dsl"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "strings/fields" `Quick test_lexer_strings_and_fields;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal model" `Quick test_parse_minimal;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "feeds pipeline" `Quick test_parsed_model_analyses;
          Alcotest.test_case "placement" `Quick test_placement_parses_and_roundtrips;
          Alcotest.test_case "placement errors" `Quick test_placement_errors;
          Alcotest.test_case "invalid flows" `Quick test_parse_invalid_flows;
          QCheck_alcotest.to_alcotest prop_parse_never_raises;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "bundled scenarios" `Quick test_roundtrip_scenarios;
          QCheck_alcotest.to_alcotest prop_roundtrip_synthetic;
        ] );
    ]
