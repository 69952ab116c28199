(* Tests for the fault injector and the self-healing monitor: injector
   determinism, resynchronisation across dropped events, duplicate
   absorption, reordering tolerance, the bounded dead-letter queue and a
   multi-subject run under a 5% fault rate. *)

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

let count_faults p (inj : _ R.Faults.injection) = L.count p inj.faults
let is_dropped = function R.Faults.Dropped _ -> true | _ -> false
let is_duplicated = function R.Faults.Duplicated _ -> true | _ -> false
let is_reordered = function R.Faults.Reordered _ -> true | _ -> false

let test_inject_deterministic () =
  let a = analysed () in
  let trace = medical_trace a.universe [ H.medical_service; H.research_service ] in
  let profile = R.Faults.uniform 0.2 in
  let i1 = R.Faults.inject_any ~seed:5 profile trace in
  let i2 = R.Faults.inject_any ~seed:5 profile trace in
  check bool_ "same seed, same delivery" true (i1.delivered = i2.delivered);
  check bool_ "same seed, same faults" true (i1.faults = i2.faults);
  let differs =
    List.exists
      (fun seed ->
        let j = R.Faults.inject_any ~seed profile trace in
        j.delivered <> i1.delivered || j.faults <> i1.faults)
      [ 6; 7; 8; 9 ]
  in
  check bool_ "some other seed perturbs differently" true differs

let test_inject_zero_rate_is_identity () =
  let a = analysed () in
  let trace = medical_trace a.universe [ H.medical_service ] in
  let inj = R.Faults.inject_any ~seed:3 no_faults trace in
  check bool_ "identity delivery" true (inj.delivered = trace);
  check int_ "no faults" 0 (List.length inj.faults)

(* The fault list is ground truth: the delivered stream is the input
   minus the dropped events plus one copy per duplicated event. *)
let test_inject_stats_match_faults () =
  let a = analysed () in
  let trace = medical_trace a.universe [ H.medical_service; H.research_service ] in
  let inj = R.Faults.inject_any ~seed:11 (R.Faults.uniform 0.3) trace in
  let lines events = List.sort compare (List.map R.Event.to_line events) in
  let of_faults p = List.filter_map p inj.faults in
  let dropped = of_faults (function R.Faults.Dropped e -> Some e | _ -> None)
  and duplicated =
    of_faults (function R.Faults.Duplicated e -> Some e | _ -> None)
  in
  check bool_ "something dropped or duplicated" true
    (dropped <> [] || duplicated <> []);
  check (Alcotest.list Alcotest.string) "delivered = input - dropped + duplicated"
    (lines
       (List.filter (fun e -> not (List.memq e dropped)) trace @ duplicated))
    (lines inj.delivered)

let test_inject_any_perturbs_strings () =
  let lines = List.init 40 (Printf.sprintf "req-%d") in
  let profile = R.Faults.uniform 0.3 in
  let i1 = R.Faults.inject_any ~seed:5 profile lines in
  let i2 = R.Faults.inject_any ~seed:5 profile lines in
  check bool_ "same seed, same delivery" true (i1.delivered = i2.delivered);
  check bool_ "same seed, same faults" true (i1.faults = i2.faults);
  let count p = L.count p i1.faults in
  let dropped = count is_dropped and duplicated = count is_duplicated in
  check bool_ "something was perturbed" true (i1.faults <> []);
  check int_ "length accounting"
    (List.length lines - dropped + duplicated)
    (List.length i1.delivered);
  check bool_ "no invented lines" true
    (List.for_all (fun l -> List.mem l lines) i1.delivered);
  let id = R.Faults.inject_any ~seed:5 no_faults lines in
  check bool_ "zero rate is identity" true (id.delivered = lines);
  check int_ "zero rate, no faults" 0 (List.length id.faults)

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
  check int_ "nothing dead-lettered" 0 (List.length st.dead);
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
    ((R.Monitor.stats m).dead <> [])

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
  let inj = R.Faults.inject_any ~seed:9 (duplicate_only 0.6) trace in
  check bool_ "injector duplicated something" true
    (count_faults is_duplicated inj >= 1);
  let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  let alerts = R.Monitor.run_trace m inj.delivered in
  check bool_ "alert stream identical to the clean run" true
    (alerts = clean_alerts);
  check int_ "duplicates absorbed, counted"
    (count_faults is_duplicated inj) (R.Monitor.stats m).duplicates

let test_reorder_converges () =
  let a = analysed () in
  let u = a.universe and lts = a.lts in
  let annotate = Core.Analysis.annotate a in
  let trace = medical_trace u [ H.medical_service; H.research_service ] in
  let clean_end = terminal_state u lts trace in
  let inj = R.Faults.inject_any ~seed:4 (reorder_only 0.5) trace in
  check bool_ "injector reordered something" true
    (count_faults is_reordered inj >= 1);
  let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
  ignore (R.Monitor.run_trace m inj.delivered);
  let st = R.Monitor.stats m in
  check int_ "nothing dead-lettered" 0 (List.length st.dead);
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
  let off_model =
    L.count
      (function R.Monitor.Off_model _ -> true | _ -> false)
      (R.Monitor.run_trace unbounded beheaded)
  in
  let letters = (R.Monitor.stats unbounded).dead in
  let total = List.length letters in
  check bool_ "several letters to work with" true (total >= 3);
  check int_ "default cap holds every off-model event" off_model total;
  check int_ "nothing shed below the cap" 0
    (R.Monitor.stats unbounded).dead_dropped;
  let m = R.Monitor.create ~dead_letter_cap:2 ~annotate u lts in
  ignore (R.Monitor.run_trace m beheaded);
  let st = R.Monitor.stats m in
  check int_ "held letters bounded by the cap" 2 (List.length st.dead);
  check int_ "overflow counted" (total - 2) st.dead_dropped;
  (* Oldest letters are shed: the newest evidence is what survives. *)
  check bool_ "newest letters kept" true
    (st.dead = List.filteri (fun i _ -> i >= total - 2) letters);
  let z = R.Monitor.create ~dead_letter_cap:0 ~annotate u lts in
  ignore (R.Monitor.run_trace z beheaded);
  let sz = R.Monitor.stats z in
  check bool_ "cap 0 keeps nothing" true (sz.dead = []);
  check int_ "cap 0 still counts" total sz.dead_dropped

(* ------------------------------------------------------------------ *)
(* Acceptance: multi-subject run under the 5% uniform profile *)

(* A deployed service interleaves many subjects' events into one stream;
   the LTS is per subject, so each subject gets its own monitor. *)
let acceptance_scenario name analysis ~seed services snoopers =
  let u = analysis.Core.Analysis.universe and lts = analysis.Core.Analysis.lts in
  let annotate = Core.Analysis.annotate analysis in
  let profile = R.Faults.uniform 0.05 in
  let stream =
    List.init 6 (fun i ->
        let trace =
          medical_trace u ~seed:(seed + (31 * i)) ~snoopers services
        in
        let inj = R.Faults.inject_any ~seed:(seed + (131 * i)) profile trace in
        List.map (fun e -> (Printf.sprintf "s%02d" i, e)) inj.delivered)
    |> List.concat
    |> List.stable_sort (fun (_, a) (_, b) ->
           compare a.R.Event.time b.R.Event.time)
  in
  let monitors = Hashtbl.create 8 in
  List.iter
    (fun (s, e) ->
      let m =
        match Hashtbl.find_opt monitors s with
        | Some m -> m
        | None ->
          let m = R.Monitor.create ~resync_depth:8 ~annotate u lts in
          Hashtbl.add monitors s m;
          m
      in
      ignore (R.Monitor.observe m e))
    stream;
  check int_ (name ^ ": every subject monitored") 6 (Hashtbl.length monitors);
  Hashtbl.iter
    (fun s m ->
      let st = R.Monitor.stats m in
      (* Three dead letters in a row with nothing placed between them
         means the monitor no longer knows where the subject is. *)
      check bool_
        (Printf.sprintf "%s/%s not lost" name s)
        true (st.consecutive_dead < 3);
      (* Every gap bridged: nothing the monitor could not place. *)
      check int_ (Printf.sprintf "%s/%s dead letters" name s) 0
        (List.length st.dead))
    monitors

let test_acceptance_healthcare_and_smart_home () =
  let healthcare = analysed ()
  and smart_home = Core.Analysis.run ~profile:SH.profile SH.diagram SH.policy in
  List.iter
    (fun seed ->
      acceptance_scenario "healthcare" healthcare ~seed
        [ H.medical_service; H.research_service ]
        [ { R.Sim.actor = "Administrator"; store = "EHR"; probability = 0.3 } ];
      acceptance_scenario "smart-home" smart_home ~seed
        [ SH.energy_service; SH.analytics_service ]
        [ { R.Sim.actor = "Marketing"; store = "Telemetry"; probability = 0.3 } ])
    [ 7; 8 ]

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
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "5% profile, two scenarios" `Quick
            test_acceptance_healthcare_and_smart_home;
        ] );
    ]
