(* Tests for the fault-injection harness and the self-healing monitor:
   injector determinism, resynchronisation across dropped events,
   duplicate absorption, reordering tolerance, fleet checkpoint/restore
   and bounded-backoff retries against a crashed node. *)

module Core = Mdp_core
module R = Mdp_runtime
module H = Mdp_scenario.Healthcare
module SH = Mdp_scenario.Smart_home
module L = Mdp_prelude.Listx

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let analysed () = Core.Analysis.run ~profile:H.profile_case_a H.diagram H.policy

let medical_trace u ?(seed = 42) ?(snoopers = []) services =
  R.Sim.run_exn u { R.Sim.seed; services; snoopers }

let no_faults =
  { R.Faults.drop = 0.0; duplicate = 0.0; reorder = 0.0; delay = 0.0; max_delay = 0 }

let duplicate_only rate = { no_faults with duplicate = rate }
let reorder_only rate = { no_faults with reorder = rate }

(* ------------------------------------------------------------------ *)
(* Injector *)

let test_inject_deterministic () =
  let a = analysed () in
  let trace = medical_trace a.universe [ H.medical_service; H.research_service ] in
  let profile = R.Faults.uniform 0.2 in
  let i1 = R.Faults.inject ~seed:5 profile trace
  and i2 = R.Faults.inject ~seed:5 profile trace in
  check bool_ "same seed, same delivery" true (i1.delivered = i2.delivered);
  check bool_ "same seed, same faults" true (i1.faults = i2.faults);
  let differs =
    List.exists
      (fun seed ->
        let j = R.Faults.inject ~seed profile trace in
        j.delivered <> i1.delivered || j.faults <> i1.faults)
      [ 6; 7; 8; 9 ]
  in
  check bool_ "some other seed perturbs differently" true differs

let test_inject_zero_rate_is_identity () =
  let a = analysed () in
  let trace = medical_trace a.universe [ H.medical_service ] in
  let inj = R.Faults.inject ~seed:3 no_faults trace in
  check bool_ "identity delivery" true (inj.delivered = trace);
  check int_ "no faults" 0 (List.length inj.faults)

let test_inject_stats_match_faults () =
  let a = analysed () in
  let trace = medical_trace a.universe [ H.medical_service; H.research_service ] in
  let inj = R.Faults.inject ~seed:11 (R.Faults.uniform 0.3) trace in
  let s = R.Faults.stats inj.faults in
  let count p = L.count p inj.faults in
  check int_ "dropped" (count (function R.Faults.Dropped _ -> true | _ -> false)) s.dropped;
  check int_ "duplicated" (count (function R.Faults.Duplicated _ -> true | _ -> false)) s.duplicated;
  check int_ "reordered" (count (function R.Faults.Reordered _ -> true | _ -> false)) s.reordered;
  check int_ "delayed" (count (function R.Faults.Delayed _ -> true | _ -> false)) s.delayed;
  check int_ "dropped leave the stream"
    (List.length trace - s.dropped + s.duplicated)
    (List.length inj.delivered)

(* ------------------------------------------------------------------ *)
(* Monitor self-healing *)

let terminal_state u lts trace =
  let m = R.Monitor.create ~annotate:Fun.id u lts in
  ignore (R.Monitor.run_trace m trace);
  R.Monitor.current_state m

let test_resync_bridges_dropped_event () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let trace = medical_trace u [ H.medical_service ] in
  let clean_end = terminal_state u lts trace in
  (* Drop one interior event: the monitor must bridge the gap with a
     Resynced alert and converge back to the clean terminal state. *)
  let dropped = List.filteri (fun i _ -> i <> 2) trace in
  let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  let alerts = R.Monitor.run_trace m dropped in
  let resyncs =
    L.count (function R.Monitor.Resynced _ -> true | _ -> false) alerts
  in
  check bool_ "at least one resync" true (resyncs >= 1);
  let st = R.Monitor.stats m in
  check int_ "nothing dead-lettered" 0 st.dead;
  check int_ "one transition skipped" 1 st.skipped;
  check int_ "converged to the clean terminal state" clean_end
    (R.Monitor.current_state m)

let test_resync_off_without_depth () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let trace = medical_trace u [ H.medical_service ] in
  let dropped = List.filteri (fun i _ -> i <> 2) trace in
  let m = R.Monitor.create ~annotate u lts in
  (* resync_depth defaults to 0 *)
  ignore (R.Monitor.run_trace m dropped);
  check bool_ "legacy monitor dead-letters instead" true
    ((R.Monitor.stats m).dead >= 1)

let test_duplicates_raise_no_duplicate_alerts () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let trace =
    medical_trace u
      ~snoopers:[ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.5 } ]
      [ H.medical_service; H.research_service ]
  in
  let clean = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  let clean_alerts = R.Monitor.run_trace clean trace in
  check bool_ "clean run raises alerts to compare" true (clean_alerts <> []);
  let inj = R.Faults.inject ~seed:9 (duplicate_only 0.6) trace in
  check bool_ "injector duplicated something" true
    ((R.Faults.stats inj.faults).duplicated >= 1);
  let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  let alerts = R.Monitor.run_trace m inj.delivered in
  check bool_ "alert stream identical to the clean run" true
    (alerts = clean_alerts);
  check int_ "duplicates absorbed, counted"
    (R.Faults.stats inj.faults).duplicated (R.Monitor.stats m).duplicates

let test_reorder_converges () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let trace = medical_trace u [ H.medical_service; H.research_service ] in
  let clean_end = terminal_state u lts trace in
  let inj = R.Faults.inject ~seed:4 (reorder_only 0.5) trace in
  check bool_ "injector reordered something" true
    ((R.Faults.stats inj.faults).reordered >= 1);
  let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  ignore (R.Monitor.run_trace m inj.delivered);
  let st = R.Monitor.stats m in
  check int_ "nothing dead-lettered" 0 st.dead;
  check bool_ "stale arrivals absorbed as late" true (st.late >= 1);
  check int_ "converged to the clean terminal state" clean_end
    (R.Monitor.current_state m)

(* Losing the very first event strands a monitor that has resync off:
   every later event of the trace is unplaceable and dead-letters. *)
let beheaded_trace u = List.tl (medical_trace u [ H.medical_service ])

let test_dead_letter_cap_bounds_memory () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let beheaded = beheaded_trace u in
  let unbounded = R.Monitor.create ~annotate u lts in
  ignore (R.Monitor.run_trace unbounded beheaded);
  let letters = R.Monitor.dead_letters unbounded in
  let total = List.length letters in
  check bool_ "several letters to work with" true (total >= 3);
  check int_ "default cap holds them all" total (R.Monitor.stats unbounded).dead;
  check int_ "nothing shed below the cap" 0
    (R.Monitor.stats unbounded).dead_dropped;
  let m = R.Monitor.create ~dead_letter_cap:2 ~annotate u lts in
  ignore (R.Monitor.run_trace m beheaded);
  let st = R.Monitor.stats m in
  check int_ "held letters bounded by the cap" 2 st.dead;
  check int_ "overflow counted" (total - 2) st.dead_dropped;
  (* Oldest letters are shed: the newest evidence is what survives. *)
  check bool_ "newest letters kept" true
    (R.Monitor.dead_letters m = L.drop (total - 2) letters);
  let z = R.Monitor.create ~dead_letter_cap:0 ~annotate u lts in
  ignore (R.Monitor.run_trace z beheaded);
  let sz = R.Monitor.stats z in
  check int_ "cap 0 keeps nothing" 0 sz.dead;
  check int_ "cap 0 still counts" total sz.dead_dropped;
  check bool_ "cap 0, empty queue" true (R.Monitor.dead_letters z = [])

let test_dead_letter_cap_checkpoints () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let m = R.Monitor.create ~dead_letter_cap:2 ~annotate u lts in
  ignore (R.Monitor.run_trace m (beheaded_trace u));
  match R.Monitor.of_json ~annotate u lts (R.Monitor.to_json m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    check bool_ "stats (incl. dead_dropped) survive the roundtrip" true
      (R.Monitor.stats m' = R.Monitor.stats m);
    check bool_ "dead letters survive the roundtrip" true
      (List.map R.Event.to_line (R.Monitor.dead_letters m')
      = List.map R.Event.to_line (R.Monitor.dead_letters m))

let test_fresh_restarts () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let trace =
    medical_trace u
      ~snoopers:[ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.5 } ]
      [ H.medical_service ]
  in
  let lines alerts = List.map (Format.asprintf "%a" R.Monitor.pp_alert) alerts in
  let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  let first = lines (R.Monitor.run_trace m trace) in
  let f = R.Monitor.fresh m in
  check int_ "fresh starts at the initial state" (Core.Plts.initial lts)
    (R.Monitor.current_state f);
  check int_ "fresh has observed nothing" 0 (R.Monitor.stats f).observed;
  check bool_ "the trace raises a risky alert" true
    (List.exists
       (function R.Monitor.Risky _ -> true | _ -> false)
       (R.Monitor.run_trace (R.Monitor.create ~annotate u lts) trace));
  check (Alcotest.list Alcotest.string) "fresh alerts as a new monitor does"
    first (lines (R.Monitor.run_trace f trace));
  check int_ "the original is unchanged" (List.length trace)
    (R.Monitor.stats m).observed

(* ------------------------------------------------------------------ *)
(* Fleet checkpoint/restore *)

let faulty_stream a ~subjects ~seed ~rate ~services ~snoopers =
  let profile = R.Faults.uniform rate in
  let traces =
    List.init subjects (fun i ->
        ( Printf.sprintf "s%02d" i,
          medical_trace a.Core.Analysis.universe ~seed:(seed + (31 * i))
            ~snoopers services ))
  in
  R.Trace.interleave
    (List.mapi
       (fun i (s, tr) ->
         (s, (R.Faults.inject ~seed:(seed + (131 * i)) profile tr).delivered))
       traces)

let feed fleet stream =
  List.iter (fun (s, e) -> ignore (R.Fleet.observe fleet ~subject:s e)) stream

let test_checkpoint_restore_replays_identically () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let stream =
    faulty_stream a ~subjects:4 ~seed:7 ~rate:0.05
      ~services:[ H.medical_service; H.research_service ]
      ~snoopers:[ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.3 } ]
  in
  let reference = R.Fleet.create ~resync_depth:8 ~annotate u lts in
  feed reference stream;
  let mid = List.length stream / 2 in
  let first = R.Fleet.create ~resync_depth:8 ~annotate u lts in
  feed first (L.take mid stream);
  match R.Fleet.restore ~annotate u lts (R.Fleet.checkpoint first) with
  | Error e -> Alcotest.fail e
  | Ok resumed ->
    feed resumed (L.drop mid stream);
    List.iter
      (fun s ->
        check bool_
          (Printf.sprintf "%s: suffix alert stream identical" s)
          true
          (R.Fleet.alerts_for reference ~subject:s
          = R.Fleet.alerts_for first ~subject:s
            @ R.Fleet.alerts_for resumed ~subject:s);
        check bool_
          (Printf.sprintf "%s: same final state" s)
          true
          (R.Fleet.state_of reference ~subject:s
          = R.Fleet.state_of resumed ~subject:s))
      (R.Fleet.subjects reference)

let test_checkpoint_rejects_garbage () =
  let a = analysed () in
  match R.Fleet.restore ~annotate:(Core.Analysis.annotate a) a.universe
      a.lts (Mdp_prelude.Json.Num 3.0) with
  | Ok _ -> Alcotest.fail "restored a fleet from a number"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Acceptance: multi-subject run under the 5% uniform profile *)

let acceptance_scenario name analysis services snoopers =
  let u = analysis.Core.Analysis.universe and lts = analysis.Core.Analysis.lts in
  let annotate = Core.Analysis.annotate analysis in
  let stream =
    faulty_stream analysis ~subjects:6 ~seed:7 ~rate:0.05 ~services ~snoopers
  in
  let fleet = R.Fleet.create ~resync_depth:8 ~annotate u lts in
  feed fleet stream;
  List.iter
    (fun (s, h) ->
      check bool_
        (Printf.sprintf "%s/%s not lost" name s)
        true
        (match h with R.Fleet.Lost -> false | _ -> true))
    (R.Fleet.health_summary fleet);
  (* Every gap bridged: nothing the fleet could not place. *)
  List.iter
    (fun s ->
      match R.Fleet.monitor_stats fleet ~subject:s with
      | None -> Alcotest.fail "subject without stats"
      | Some st ->
        check int_ (Printf.sprintf "%s/%s dead letters" name s) 0 st.dead)
    (R.Fleet.subjects fleet)

let test_acceptance_healthcare_and_smart_home () =
  acceptance_scenario "healthcare" (analysed ())
    [ H.medical_service; H.research_service ]
    [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.3 } ];
  acceptance_scenario "smart-home"
    (Core.Analysis.run ~profile:SH.profile SH.diagram SH.policy)
    [ SH.energy_service; SH.analytics_service ]
    [ { R.Sim.actor = "Marketing"; store = "Telemetry"; probability = 0.3 } ]

(* ------------------------------------------------------------------ *)
(* Chaos state and backoff *)

let deployment u =
  match
    R.Deployment.create
      ~nodes:
        [
          { R.Deployment.id = "surgery"; region = "UK" };
          { R.Deployment.id = "dc-eu"; region = "EU" };
          { R.Deployment.id = "research-cloud"; region = "US" };
        ]
      ~actors:
        [
          ("Receptionist", "surgery");
          ("Doctor", "surgery");
          ("Nurse", "surgery");
          ("Administrator", "dc-eu");
          ("Researcher", "research-cloud");
        ]
      ~stores:
        [ ("Appointments", "surgery"); ("EHR", "dc-eu"); ("AnonEHR", "research-cloud") ]
      u
  with
  | Ok d -> d
  | Error msgs -> Alcotest.fail (String.concat "; " msgs)

let test_timed_crash_expires () =
  let a = analysed () in
  let chaos = R.Faults.chaos (deployment a.universe) in
  let sim = R.Store_sim.create ~seed:1 a.universe in
  R.Faults.crash_node ~for_ticks:3 chaos "dc-eu";
  R.Faults.sync_stores chaos sim;
  check bool_ "down immediately" false (R.Faults.node_up chaos "dc-eu");
  check bool_ "store on it unavailable" false
    (R.Store_sim.available sim ~store:"EHR");
  check bool_ "other store untouched" true
    (R.Store_sim.available sim ~store:"Appointments");
  for _ = 1 to 3 do
    R.Faults.tick chaos
  done;
  R.Faults.sync_stores chaos sim;
  check bool_ "healed after the outage" true (R.Faults.node_up chaos "dc-eu");
  check bool_ "store back" true (R.Store_sim.available sim ~store:"EHR")

let test_backoff_recovers_write () =
  let a = analysed () in
  let u = a.universe in
  let chaos = R.Faults.chaos (deployment u) in
  let sim = R.Store_sim.create ~seed:1 u in
  R.Faults.crash_node ~for_ticks:4 chaos "dc-eu";
  let op () =
    R.Faults.sync_stores chaos sim;
    R.Store_sim.write sim ~actor:"Doctor" ~store:"EHR" ~subject:"p1"
      [ (H.diagnosis, Mdp_anon.Value.Str "flu") ]
  in
  let result, outcome = R.Faults.with_backoff chaos op in
  (match result with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("write never recovered: " ^ e));
  check bool_ "took several attempts" true (outcome.attempts > 1);
  check bool_ "waited through the outage" true (outcome.waited >= 4)

let test_inject_any_perturbs_strings () =
  let lines = List.init 40 (Printf.sprintf "req-%d") in
  let profile = R.Faults.uniform 0.3 in
  let i1 = R.Faults.inject_any ~seed:5 profile lines in
  let i2 = R.Faults.inject_any ~seed:5 profile lines in
  check bool_ "same seed, same delivery" true (i1.delivered = i2.delivered);
  check bool_ "same seed, same faults" true (i1.faults = i2.faults);
  let count p = L.count p i1.faults in
  let dropped = count (function R.Faults.Dropped _ -> true | _ -> false)
  and duplicated = count (function R.Faults.Duplicated _ -> true | _ -> false) in
  check bool_ "something was perturbed" true (i1.faults <> []);
  check int_ "length accounting"
    (List.length lines - dropped + duplicated)
    (List.length i1.delivered);
  check bool_ "no invented lines" true
    (List.for_all (fun l -> List.mem l lines) i1.delivered);
  let id = R.Faults.inject_any ~seed:5 no_faults lines in
  check bool_ "zero rate is identity" true (id.delivered = lines);
  check int_ "zero rate, no faults" 0 (List.length id.faults)

(* An op that always fails retriably: the loop runs the full schedule,
   so [waited] exposes the exact wait sequence. *)
let always_unavailable () = Error "unavailable: induced for backoff test"

(* Base 1, cap 8, 6 attempts: waits 1+2+4+8+8 = 23. *)
let test_backoff_default_schedule_unchanged () =
  let a = analysed () in
  let chaos = R.Faults.chaos (deployment a.universe) in
  let result, outcome = R.Faults.with_backoff chaos always_unavailable in
  check bool_ "still failed" true (Result.is_error result);
  check int_ "all attempts used" 6 outcome.attempts;
  check int_ "exact exponential schedule" 23 outcome.waited

let test_backoff_stops_on_permanent_error () =
  let a = analysed () in
  let chaos = R.Faults.chaos (deployment a.universe) in
  let calls = ref 0 in
  let op () =
    incr calls;
    Error "permission denied"
  in
  let result, outcome = R.Faults.with_backoff chaos op in
  check bool_ "error surfaced" true (Result.is_error result);
  check int_ "not retried" 1 !calls;
  check int_ "one attempt recorded" 1 outcome.attempts

let () =
  Alcotest.run "faults"
    [
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
          Alcotest.test_case "zero rate" `Quick test_inject_zero_rate_is_identity;
          Alcotest.test_case "stats" `Quick test_inject_stats_match_faults;
          Alcotest.test_case "inject_any on request lines" `Quick
            test_inject_any_perturbs_strings;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "resync bridges drop" `Quick
            test_resync_bridges_dropped_event;
          Alcotest.test_case "no resync at depth 0" `Quick
            test_resync_off_without_depth;
          Alcotest.test_case "duplicates absorbed" `Quick
            test_duplicates_raise_no_duplicate_alerts;
          Alcotest.test_case "reorder converges" `Quick test_reorder_converges;
          Alcotest.test_case "dead-letter queue is bounded" `Quick
            test_dead_letter_cap_bounds_memory;
          Alcotest.test_case "dead-letter bounds checkpoint" `Quick
            test_dead_letter_cap_checkpoints;
          Alcotest.test_case "fresh restarts" `Quick test_fresh_restarts;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restore replays identically" `Quick
            test_checkpoint_restore_replays_identically;
          Alcotest.test_case "rejects garbage" `Quick
            test_checkpoint_rejects_garbage;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "5% profile, two scenarios" `Quick
            test_acceptance_healthcare_and_smart_home;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "timed outages expire" `Quick
            test_timed_crash_expires;
          Alcotest.test_case "backoff recovers write" `Quick
            test_backoff_recovers_write;
          Alcotest.test_case "permanent error not retried" `Quick
            test_backoff_stops_on_permanent_error;
          Alcotest.test_case "unjittered schedule unchanged" `Quick
            test_backoff_default_schedule_unchanged;
        ] );
    ]
