(* Tests for the runtime substrate: events (serialisation), the
   policy-enforcement point, the trace simulator and the LTS monitor. *)

open Mdp_dataflow
module Core = Mdp_core
module R = Mdp_runtime
module H = Mdp_scenario.Healthcare

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let universe () = Core.Universe.make H.diagram H.policy

(* ------------------------------------------------------------------ *)
(* Event *)

let sample_event () =
  R.Event.make ~time:3 ~kind:Core.Action.Read ~actor:"Administrator"
    ~fields:[ H.name; H.diagnosis ] ~store:"EHR" ()

let test_event_line_roundtrip () =
  let variants =
    [
      sample_event ();
      R.Event.make ~time:1 ~kind:Core.Action.Collect ~actor:"Receptionist"
        ~fields:[ H.name ] ~service:"MedicalService" ();
      R.Event.make ~time:2 ~kind:Core.Action.Disclose ~actor:"Doctor"
        ~fields:[ H.treatment ] ~counterparty:"Nurse" ();
      R.Event.make ~time:4 ~kind:Core.Action.Anon ~actor:"Administrator"
        ~fields:[ H.diagnosis ] ~store:"AnonEHR" ~service:"MedicalResearchService" ();
    ]
  in
  List.iter
    (fun e ->
      match R.Event.of_line (R.Event.to_line e) with
      | Ok e' -> check bool_ "roundtrip equal" true (e = e')
      | Error msg -> Alcotest.fail msg)
    variants

let test_event_line_errors () =
  List.iter
    (fun line ->
      match R.Event.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      "";
      "x read A F - - -";
      "1 teleport A F - - -";
      "1 read A F";
      "1 read A F,,G - - -";
      "1 read A , - - -";
      ",";
    ]

(* Names a validated model can carry: DSL identifiers (the lexer's
   identifier characters, not all digits) other than "-", which event
   lines reserve for an absent store, service or counterparty. *)
let gen_ident =
  let open QCheck.Gen in
  let chars = "abzAZ09_-~." in
  map
    (fun s ->
      if s = "-" || String.for_all (fun c -> c >= '0' && c <= '9') s then
        "x" ^ s
      else s)
    (string_size
       ~gen:(map (String.get chars) (int_bound (String.length chars - 1)))
       (1 -- 8))

let gen_event =
  let open QCheck.Gen in
  let kinds = Core.Action.[ Collect; Create; Read; Disclose; Anon; Delete ] in
  map
    (fun ((time, kind, actor), (fields, store, service, counterparty)) ->
      {
        R.Event.time;
        kind;
        actor;
        fields = List.map Field.of_name fields;
        store;
        service;
        counterparty;
      })
    (pair
       (triple int (oneofl kinds) gen_ident)
       (quad
          (list_size (1 -- 4) gen_ident)
          (option gen_ident) (option gen_ident) (option gen_ident)))

let prop_event_line_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"of_line inverts to_line"
    (QCheck.make ~print:R.Event.to_line gen_event)
    (fun e -> R.Event.of_line (R.Event.to_line e) = Ok e)

(* Printable text, and seven-token lines whose slots mostly hold
   well-formed values, so the field-list parser sees malformed lists
   behind a valid timestamp and kind. *)
let prop_trace_text_never_raises =
  let open QCheck.Gen in
  let slot pool =
    frequency [ (3, oneofl pool); (1, string_size ~gen:printable (0 -- 6)) ]
  in
  let names = [ "-"; "A"; "EHR"; "S" ] in
  let event_line =
    map (String.concat " ")
      (flatten_l
         [
           slot [ "1"; "2"; "10"; "-3" ];
           slot [ "read"; "collect"; "create"; "disclose"; "anon"; "delete" ];
           slot names;
           slot [ "F"; "F,G"; "F,,G"; ","; ",F"; "F,"; "F~anon"; "~anon"; "F\tG"; "" ];
           slot names;
           slot names;
           slot names;
         ])
  in
  let line = oneof [ event_line; string_size ~gen:printable (0 -- 40) ] in
  QCheck.Test.make ~count:2000 ~name:"Trace.of_lines never raises"
    (QCheck.make ~print:(Printf.sprintf "%S")
       (map (String.concat "\n") (list_size (0 -- 6) line)))
    (fun text ->
      match R.Trace.of_lines text with
      | Ok _ | Error _ -> true
      | exception exn ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string exn)
          text)

let test_fields_equal () =
  check bool_ "set equality" true
    (R.Event.fields_equal [ H.name; H.diagnosis ] [ H.diagnosis; H.name ]);
  check bool_ "duplicates collapse" true
    (R.Event.fields_equal [ H.name; H.name ] [ H.name ]);
  check bool_ "different sets" false
    (R.Event.fields_equal [ H.name ] [ H.diagnosis ])

(* ------------------------------------------------------------------ *)
(* Enforcement *)

let test_enforce_allows_permitted_read () =
  let u = universe () in
  match R.Enforce.decide u (sample_event ()) with
  | R.Enforce.Allowed e ->
    check int_ "both fields delivered" 2 (List.length e.R.Event.fields)
  | R.Enforce.Denied r -> Alcotest.fail r

let test_enforce_narrows () =
  let u = universe () in
  let nurse_read =
    R.Event.make ~time:1 ~kind:Core.Action.Read ~actor:"Nurse"
      ~fields:[ H.name; H.diagnosis; H.treatment ]
      ~store:"EHR" ()
  in
  match R.Enforce.decide u nurse_read with
  | R.Enforce.Allowed e ->
    check (Alcotest.list Alcotest.string) "narrowed to permitted"
      [ "Name"; "Treatment" ]
      (List.map Field.name e.R.Event.fields)
  | R.Enforce.Denied r -> Alcotest.fail r

let test_enforce_denies () =
  let u = universe () in
  let researcher_raw =
    R.Event.make ~time:1 ~kind:Core.Action.Read ~actor:"Researcher"
      ~fields:[ H.diagnosis ] ~store:"EHR" ()
  in
  (match R.Enforce.decide u researcher_raw with
  | R.Enforce.Denied _ -> ()
  | R.Enforce.Allowed _ -> Alcotest.fail "researcher raw read allowed");
  let no_store =
    R.Event.make ~time:1 ~kind:Core.Action.Read ~actor:"Doctor"
      ~fields:[ H.name ] ()
  in
  match R.Enforce.decide u no_store with
  | R.Enforce.Denied _ -> ()
  | R.Enforce.Allowed _ -> Alcotest.fail "storeless read allowed"

(* The Doctor's EHR grant selects no fields, so it covers every field
   EHR holds, and none that it does not: a read of an unknown field is
   denied, and a mixed read is narrowed to the held fields. *)
let test_enforce_denies_unheld_fields () =
  let u = universe () in
  let bogus = Field.make "Bogus" in
  let read fields =
    R.Enforce.decide u
      (R.Event.make ~time:3 ~kind:Core.Action.Read ~actor:"Doctor" ~fields
         ~store:"EHR" ())
  in
  (match read [ bogus ] with
  | R.Enforce.Denied _ -> ()
  | R.Enforce.Allowed _ -> Alcotest.fail "read of an unheld field allowed");
  (match read [ H.name; bogus ] with
  | R.Enforce.Allowed e ->
    check (Alcotest.list Alcotest.string) "narrowed to held fields"
      [ "Name" ]
      (List.map Field.name e.R.Event.fields)
  | R.Enforce.Denied r -> Alcotest.fail r);
  (* the same holds for writes: Appointments holds no Diagnosis *)
  match
    R.Enforce.decide u
      (R.Event.make ~time:3 ~kind:Core.Action.Create ~actor:"Receptionist"
         ~fields:[ H.diagnosis ] ~store:"Appointments" ())
  with
  | R.Enforce.Denied _ -> ()
  | R.Enforce.Allowed _ -> Alcotest.fail "write of an unheld field allowed"

let test_enforce_anon_checked_on_variants () =
  let u = universe () in
  (* The Administrator writes anon variants: permitted. *)
  let anon_ok =
    R.Event.make ~time:1 ~kind:Core.Action.Anon ~actor:"Administrator"
      ~fields:[ H.diagnosis ] ~store:"AnonEHR" ()
  in
  (match R.Enforce.decide u anon_ok with
  | R.Enforce.Allowed _ -> ()
  | R.Enforce.Denied r -> Alcotest.fail r);
  (* The Doctor has no write permission there. *)
  let anon_bad = { anon_ok with R.Event.actor = "Doctor" } in
  match R.Enforce.decide u anon_bad with
  | R.Enforce.Denied _ -> ()
  | R.Enforce.Allowed _ -> Alcotest.fail "doctor anon write allowed"

let test_enforce_collect_passthrough () =
  let u = universe () in
  let collect =
    R.Event.make ~time:1 ~kind:Core.Action.Collect ~actor:"Receptionist"
      ~fields:[ H.name ] ()
  in
  match R.Enforce.decide u collect with
  | R.Enforce.Allowed e -> check bool_ "unchanged" true (e = collect)
  | R.Enforce.Denied r -> Alcotest.fail r

(* ------------------------------------------------------------------ *)
(* Simulator *)

let sim_config ?(seed = 42) ?(snoopers = []) services =
  { R.Sim.seed; services; snoopers }

let test_sim_deterministic () =
  let u = universe () in
  let cfg = sim_config [ H.medical_service; H.research_service ] in
  let a = R.Sim.run_exn u cfg and b = R.Sim.run_exn u cfg in
  check bool_ "same trace" true (a = b);
  let c = R.Sim.run_exn u { cfg with seed = 43 } in
  check int_ "same length without snoopers" (List.length a) (List.length c)

let test_sim_covers_flows () =
  let u = universe () in
  let trace = R.Sim.run_exn u (sim_config [ H.medical_service ]) in
  check int_ "one event per flow" 6 (List.length trace);
  let times = List.map (fun e -> e.R.Event.time) trace in
  check (Alcotest.list int_) "strictly increasing times"
    (List.init 6 (fun i -> i + 1))
    times

let test_sim_respects_data_dependencies () =
  (* The research service's EHR read must come after the medical
     service's EHR create. *)
  let u = universe () in
  for seed = 1 to 20 do
    let trace =
      R.Sim.run_exn u (sim_config ~seed [ H.medical_service; H.research_service ])
    in
    let time_of pred =
      match List.find_opt pred trace with
      | Some e -> e.R.Event.time
      | None -> Alcotest.fail "expected event missing"
    in
    let created =
      time_of (fun e ->
          e.R.Event.kind = Core.Action.Create && e.R.Event.store = Some "EHR")
    in
    let research_read =
      time_of (fun e ->
          e.R.Event.kind = Core.Action.Read
          && e.R.Event.store = Some "EHR"
          && e.R.Event.service = Some H.research_service)
    in
    if research_read < created then
      Alcotest.failf "seed %d: research read before EHR created" seed
  done

let test_sim_snoopers_fire () =
  let u = universe () in
  let cfg =
    sim_config ~seed:42
      ~snoopers:[ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ]
      [ H.medical_service ]
  in
  let trace = R.Sim.run_exn u cfg in
  check bool_ "snoop read present" true
    (List.exists
       (fun e ->
         e.R.Event.actor = "Administrator"
         && e.R.Event.kind = Core.Action.Read
         && e.R.Event.service = None)
       trace);
  (* probability 0 never fires *)
  let quiet =
    R.Sim.run_exn u
      (sim_config ~seed:42
         ~snoopers:
           [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.0 } ]
         [ H.medical_service ])
  in
  check int_ "no snoops at p=0" 6 (List.length quiet)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let monitored ?profile () =
  let profile = Option.value profile ~default:H.profile_case_a in
  let a = Core.Analysis.run ~profile H.diagram H.policy in
  (a, R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts)

let test_monitor_clean_medical_run () =
  let a, monitor = monitored () in
  let trace = R.Sim.run_exn a.universe (sim_config [ H.medical_service ]) in
  let alerts = R.Monitor.run_trace monitor trace in
  check int_ "no alerts on the agreed service" 0 (List.length alerts)

let test_monitor_flags_snoop_as_risky () =
  let a, monitor = monitored () in
  let trace =
    R.Sim.run_exn a.universe
      (sim_config ~seed:42
         ~snoopers:
           [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ]
         [ H.medical_service ])
  in
  let alerts = R.Monitor.run_trace monitor trace in
  check bool_ "risky alert present" true
    (List.exists
       (function
         | R.Monitor.Risky (_, { level; _ }) ->
           Core.Level.equal level Core.Level.Medium
         | _ -> false)
       alerts)

let test_monitor_denied () =
  let _, monitor = monitored () in
  let bad =
    R.Event.make ~time:1 ~kind:Core.Action.Read ~actor:"Researcher"
      ~fields:[ H.diagnosis ] ~store:"EHR" ()
  in
  (* Blocked by the PEP and never predicted by the model: both facets
     are reported, most severe first. *)
  match R.Monitor.observe monitor bad with
  | [ R.Monitor.Denied (_, _); R.Monitor.Off_model _ ] -> ()
  | _ -> Alcotest.fail "expected Denied plus Off_model alerts"

let test_monitor_off_model () =
  let _, monitor = monitored () in
  (* A permitted read that the model does not predict at the initial
     state (store still empty). *)
  let early =
    R.Event.make ~time:1 ~kind:Core.Action.Read ~actor:"Doctor"
      ~fields:[ H.name ] ~store:"EHR" ()
  in
  (match R.Monitor.observe monitor early with
  | [ R.Monitor.Off_model _ ] -> ()
  | _ -> Alcotest.fail "expected Off_model");
  (* ... and the monitor state did not advance. *)
  let init_state = R.Monitor.current_state monitor in
  check int_ "state unchanged" init_state (R.Monitor.current_state monitor)

(* A σ what-if that reuses the base analysis's LTS leaves a monitor on
   the base analysis reporting the base levels: the administrator's
   snoop stays Medium, not the Low the edited σ would give. *)
let test_monitor_survives_whatif () =
  let a, before = monitored () in
  let after =
    R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
  in
  let trace =
    R.Sim.run_exn a.universe
      (sim_config ~seed:42
         ~snoopers:
           [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ]
         [ H.medical_service ])
  in
  let render alerts =
    List.map (Format.asprintf "%a" R.Monitor.pp_alert) alerts
  in
  let expected = R.Monitor.run_trace before trace in
  check bool_ "Medium snoop before the what-if" true
    (List.exists
       (function
         | R.Monitor.Risky (_, { level; _ }) ->
           Core.Level.equal level Core.Level.Medium
         | _ -> false)
       expected);
  let a' =
    Core.Analysis.run_incremental ~previous:a
      [ Core.Edit.Set_sensitivity (H.diagnosis, 0.0) ]
  in
  check bool_ "what-if reuses the LTS" true (a'.lts == a.lts);
  check
    Alcotest.(list string)
    "same alerts after the what-if" (render expected)
    (render (R.Monitor.run_trace after trace))

let test_monitor_min_level_filter () =
  let a = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy in
  let strict =
    R.Monitor.create ~min_level:Core.Level.High
      ~annotate:(Core.Analysis.annotate a) a.universe a.lts
  in
  let trace =
    R.Sim.run_exn a.universe
      (sim_config ~seed:42
         ~snoopers:
           [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 1.0 } ]
         [ H.medical_service ])
  in
  let alerts = R.Monitor.run_trace strict trace in
  check bool_ "medium risk filtered at min_level High" true
    (List.for_all (function R.Monitor.Risky _ -> false | _ -> true) alerts)

let test_monitor_full_interleaving () =
  (* Both services plus a snooper: the whole trace stays on-model. *)
  let a, monitor = monitored () in
  for seed = 1 to 10 do
    let fresh =
      R.Monitor.create ~annotate:(Core.Analysis.annotate a) a.universe a.lts
    in
    ignore monitor;
    let trace =
      R.Sim.run_exn a.universe
        (sim_config ~seed
           ~snoopers:
             [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.5 } ]
           [ H.medical_service; H.research_service ])
    in
    let alerts = R.Monitor.run_trace fresh trace in
    List.iter
      (function
        | R.Monitor.Off_model e ->
          Alcotest.failf "seed %d: off-model %s" seed (R.Event.to_line e)
        | R.Monitor.Resynced (e, _) ->
          Alcotest.failf "seed %d: resync on a clean trace %s" seed
            (R.Event.to_line e)
        | R.Monitor.Risky _ | R.Monitor.Denied _ -> ())
      alerts
  done


(* ------------------------------------------------------------------ *)
(* Store_sim *)

module V = Mdp_anon.Value

let study_sim () =
  let u = Core.Universe.make H.study_diagram H.study_policy in
  let sim = R.Store_sim.create ~seed:7 u in
  (u, sim)

let write_patient sim i =
  R.Store_sim.write sim ~actor:"Clinician" ~store:"StudyRecords"
    ~subject:(Printf.sprintf "s%d" i)
    [
      (H.name, V.Str (Printf.sprintf "n%d" i));
      (H.age, V.Int (20 + i));
      (H.height, V.Int (160 + i));
      (H.weight, V.Int (70 + i));
    ]

(* The stored value of [field] for the [row]-th subject of [store], read
   back through the store's dataset. *)
let stored sim ~store ~row field =
  match R.Store_sim.dataset sim ~store ~kinds:[] with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    Mdp_anon.Dataset.get ds ~row
      ~col:(Mdp_anon.Dataset.col_index ds (Mdp_dataflow.Field.name field))

let test_store_write_read () =
  let _, sim = study_sim () in
  (match write_patient sim 1 with Ok () -> () | Error e -> Alcotest.fail e);
  check (Alcotest.list Alcotest.string) "one subject" [ "s1" ]
    (R.Store_sim.subjects sim ~store:"StudyRecords");
  check bool_ "age stored" true
    (stored sim ~store:"StudyRecords" ~row:0 H.age = V.Int 21);
  check bool_ "weight stored" true
    (stored sim ~store:"StudyRecords" ~row:0 H.weight = V.Int 71)

let test_store_write_enforced () =
  let _, sim = study_sim () in
  (* Researcher has no write permission anywhere. *)
  (match
     R.Store_sim.write sim ~actor:"Researcher" ~store:"StudyRecords"
       ~subject:"s1" [ (H.age, V.Int 30) ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unauthorised write accepted");
  (* Writing a field outside the schema fails. *)
  match
    R.Store_sim.write sim ~actor:"Clinician" ~store:"StudyRecords"
      ~subject:"s1" [ (Mdp_dataflow.Field.make "Shoe", V.Int 42) ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "foreign field accepted"

let test_store_upsert () =
  let _, sim = study_sim () in
  ignore (write_patient sim 1);
  (match
     R.Store_sim.write sim ~actor:"Clinician" ~store:"StudyRecords"
       ~subject:"s1" [ (H.weight, V.Int 99) ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check bool_ "updated" true
    (stored sim ~store:"StudyRecords" ~row:0 H.weight = V.Int 99);
  check bool_ "other fields kept" true
    (stored sim ~store:"StudyRecords" ~row:0 H.age = V.Int 21);
  check int_ "one subject" 1
    (List.length (R.Store_sim.subjects sim ~store:"StudyRecords"))

let test_store_pseudonymise_and_dataset () =
  let _, sim = study_sim () in
  for i = 1 to 6 do
    ignore (write_patient sim i)
  done;
  let h = Mdp_anon.Hierarchy.numeric ~widths:[ 10.0 ] () in
  (match
     R.Store_sim.pseudonymise sim ~actor:"Administrator"
       ~from_store:"StudyRecords" ~to_store:"AnonStudy"
       ~generalise:
         [
           (H.age, Mdp_anon.Hierarchy.generalise h ~level:1);
           (H.height, Mdp_anon.Hierarchy.generalise h ~level:1);
         ]
   with
  | Ok n -> check int_ "all records released" 6 n
  | Error e -> Alcotest.fail e);
  (* Pseudonyms hide subjects. *)
  List.iter
    (fun p ->
      check bool_ "opaque pseudonym" true
        (String.length p > 2 && String.sub p 0 2 = "p-"))
    (R.Store_sim.subjects sim ~store:"AnonStudy");
  (* Extract the live release and check its shape. *)
  match
    R.Store_sim.dataset sim ~store:"AnonStudy"
      ~kinds:
        [
          (Mdp_dataflow.Field.anon_of H.age, Mdp_anon.Attribute.Quasi);
          (Mdp_dataflow.Field.anon_of H.height, Mdp_anon.Attribute.Quasi);
          (Mdp_dataflow.Field.anon_of H.weight, Mdp_anon.Attribute.Sensitive);
        ]
  with
  | Error e -> Alcotest.fail e
  | Ok ds ->
    check int_ "rows" 6 (Mdp_anon.Dataset.nrows ds);
    check int_ "quasi columns" 2 (List.length (Mdp_anon.Dataset.quasi_indices ds));
    (* Ages were generalised to decades; weights stayed raw. *)
    (match Mdp_anon.Dataset.get ds ~row:0 ~col:(Mdp_anon.Dataset.col_index ds "Age") with
    | Mdp_anon.Value.Interval _ -> ()
    | v -> Alcotest.failf "age not generalised: %s" (V.to_string v));
    match Mdp_anon.Dataset.get ds ~row:0 ~col:(Mdp_anon.Dataset.col_index ds "Weight") with
    | Mdp_anon.Value.Int 71 -> ()
    | v -> Alcotest.failf "weight changed: %s" (V.to_string v)

let test_store_pseudonymise_enforced () =
  let _, sim = study_sim () in
  ignore (write_patient sim 1);
  (* The Researcher may neither read the raw store nor write the anon
     one. *)
  match
    R.Store_sim.pseudonymise sim ~actor:"Researcher"
      ~from_store:"StudyRecords" ~to_store:"AnonStudy" ~generalise:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unauthorised pseudonymisation accepted"

(* ------------------------------------------------------------------ *)
(* Trace.stats — single-pass summary, including the degenerate traces
   where the old multi-pass code indexed with List.nth. *)

let ev ?service ~time ~kind ~actor () =
  R.Event.make ~time ~kind ~actor ~fields:[ H.name ] ?service ()

let test_stats_empty () =
  let s = R.Trace.stats [] in
  check int_ "events" 0 s.R.Trace.events;
  check int_ "span" 0 s.R.Trace.span;
  check int_ "ad_hoc" 0 s.R.Trace.ad_hoc;
  check bool_ "no kinds" true (s.R.Trace.by_kind = []);
  check bool_ "no actors" true (s.R.Trace.by_actor = [])

let test_stats_singleton () =
  let s =
    R.Trace.stats [ ev ~time:7 ~kind:Core.Action.Read ~actor:"Doctor" () ]
  in
  check int_ "events" 1 s.R.Trace.events;
  check int_ "span of a single event" 0 s.R.Trace.span;
  check int_ "ad_hoc (no service context)" 1 s.R.Trace.ad_hoc;
  check bool_ "one kind" true
    (s.R.Trace.by_kind = [ (Core.Action.Read, 1) ]);
  check bool_ "one actor" true (s.R.Trace.by_actor = [ ("Doctor", 1) ])

let test_stats_pair () =
  let s =
    R.Trace.stats
      [
        ev ~time:3 ~kind:Core.Action.Collect ~actor:"Receptionist"
          ~service:"MedicalService" ();
        ev ~time:10 ~kind:Core.Action.Read ~actor:"Doctor" ();
      ]
  in
  check int_ "events" 2 s.R.Trace.events;
  check int_ "span is last minus first" 7 s.R.Trace.span;
  check int_ "ad_hoc counts only contextless events" 1 s.R.Trace.ad_hoc;
  check bool_ "kinds in first-appearance order" true
    (s.R.Trace.by_kind
    = [ (Core.Action.Collect, 1); (Core.Action.Read, 1) ]);
  check bool_ "actors in first-appearance order" true
    (s.R.Trace.by_actor = [ ("Receptionist", 1); ("Doctor", 1) ])

let test_stats_matches_sim () =
  let u = universe () in
  let trace = R.Sim.run_exn u (sim_config [ H.medical_service ]) in
  let s = R.Trace.stats trace in
  check int_ "events = trace length" (List.length trace) s.R.Trace.events;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.R.Trace.by_kind in
  check int_ "kind counts partition the trace" s.R.Trace.events total;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.R.Trace.by_actor in
  check int_ "actor counts partition the trace" s.R.Trace.events total

let () =
  Alcotest.run "runtime"
    [
      ( "event",
        [
          Alcotest.test_case "line roundtrip" `Quick test_event_line_roundtrip;
          Alcotest.test_case "line errors" `Quick test_event_line_errors;
          Alcotest.test_case "fields_equal" `Quick test_fields_equal;
          QCheck_alcotest.to_alcotest prop_event_line_roundtrip;
          QCheck_alcotest.to_alcotest prop_trace_text_never_raises;
        ] );
      ( "enforce",
        [
          Alcotest.test_case "allows permitted" `Quick test_enforce_allows_permitted_read;
          Alcotest.test_case "narrows" `Quick test_enforce_narrows;
          Alcotest.test_case "denies" `Quick test_enforce_denies;
          Alcotest.test_case "denies unheld fields" `Quick
            test_enforce_denies_unheld_fields;
          Alcotest.test_case "anon variants" `Quick test_enforce_anon_checked_on_variants;
          Alcotest.test_case "collect passthrough" `Quick test_enforce_collect_passthrough;
        ] );
      ( "sim",
        [
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "covers flows" `Quick test_sim_covers_flows;
          Alcotest.test_case "data dependencies" `Quick test_sim_respects_data_dependencies;
          Alcotest.test_case "snoopers" `Quick test_sim_snoopers_fire;
        ] );
      ( "store_sim",
        [
          Alcotest.test_case "write/read" `Quick test_store_write_read;
          Alcotest.test_case "write enforced" `Quick test_store_write_enforced;
          Alcotest.test_case "upsert" `Quick test_store_upsert;
          Alcotest.test_case "pseudonymise/dataset" `Quick
            test_store_pseudonymise_and_dataset;
          Alcotest.test_case "pseudonymise enforced" `Quick
            test_store_pseudonymise_enforced;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Quick test_monitor_clean_medical_run;
          Alcotest.test_case "risky snoop" `Quick test_monitor_flags_snoop_as_risky;
          Alcotest.test_case "denied" `Quick test_monitor_denied;
          Alcotest.test_case "off-model" `Quick test_monitor_off_model;
          Alcotest.test_case "min level filter" `Quick test_monitor_min_level_filter;
          Alcotest.test_case "full interleaving" `Quick test_monitor_full_interleaving;
          Alcotest.test_case "base monitor survives a what-if" `Quick
            test_monitor_survives_whatif;
        ] );
      ( "trace-stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "singleton" `Quick test_stats_singleton;
          Alcotest.test_case "pair" `Quick test_stats_pair;
          Alcotest.test_case "simulated trace" `Quick test_stats_matches_sim;
        ] );
    ]
