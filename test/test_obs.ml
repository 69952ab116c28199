(* The observability layer: deterministic shard merging for any job
   count, disabled-mode as a true no-op (recording entry points leave
   no trace AND analysis output is byte-identical with metrics on or
   off), and exporter round-trips. *)

module Core = Mdp_core
module H = Mdp_scenario.Healthcare
module Metrics = Mdp_obs.Metrics
module Clock = Mdp_obs.Clock
module Json = Mdp_prelude.Json

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

(* Run [f] with metrics forced to [on], restoring the previous switch
   (tests in one binary share the global). *)
let with_metrics on f =
  let before = Metrics.enabled () in
  Metrics.set_enabled on;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled before) f

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  check bool_ "clock never goes backwards" true (b >= a);
  let (), dt = Clock.time (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id))) in
  check bool_ "elapsed time is non-negative" true (dt >= 0.)

(* Counters and histograms merge to the same snapshot no matter how
   the work is sharded across domains. *)
let test_merge_deterministic () =
  with_metrics true @@ fun () ->
  let n = 10_000 in
  let run jobs =
    Metrics.reset ();
    ignore
      (Mdp_prelude.Parallel.map_chunks ~jobs n (fun lo hi ->
           for i = lo to hi - 1 do
             Metrics.incr "t/events";
             Metrics.add "t/sum" i;
             Metrics.observe "t/width" (i mod 257)
           done)
        : unit list);
    Metrics.snapshot ()
  in
  let base = run 1 in
  check int_ "baseline counter" n (List.assoc "t/events" base.Metrics.counters);
  check int_ "baseline sum" (n * (n - 1) / 2)
    (List.assoc "t/sum" base.Metrics.counters);
  List.iter
    (fun jobs ->
      let s = run jobs in
      check bool_
        (Printf.sprintf "jobs=%d counters match jobs=1" jobs)
        true (s.Metrics.counters = base.Metrics.counters);
      check bool_
        (Printf.sprintf "jobs=%d histograms match jobs=1" jobs)
        true (s.Metrics.histograms = base.Metrics.histograms))
    [ 2; 3; 4; 8 ];
  Metrics.reset ()

(* With the switch off, every recording entry point is a no-op: the
   snapshot stays empty. *)
let test_disabled_no_op () =
  with_metrics false @@ fun () ->
  Metrics.reset ();
  Metrics.incr "off/c";
  Metrics.add "off/c" 41;
  Metrics.observe "off/h" 9;
  let r = Metrics.span "off/span" (fun () -> 17) in
  check int_ "span still returns the result" 17 r;
  let s = Metrics.snapshot () in
  check bool_ "no counters recorded" true (s.Metrics.counters = []);
  check bool_ "no histograms recorded" true (s.Metrics.histograms = []);
  check bool_ "no spans recorded" true (s.Metrics.spans = [])

(* Flipping the metrics switch must not change a single byte of
   analysis output: same LTS, same rendered disclosure report. *)
let test_analysis_byte_identical () =
  let render () =
    let u = Core.Universe.make H.diagram H.policy in
    let lts = Core.Generate.run u in
    let report = Core.Disclosure_risk.analyse u lts H.profile_case_a in
    Format.asprintf "%d/%d %a"
      (Core.Plts.num_states lts) (Core.Plts.num_transitions lts)
      Core.Disclosure_risk.pp_report report
  in
  let off = with_metrics false render in
  let on = with_metrics true (fun () -> Metrics.reset (); render ()) in
  check Alcotest.string "metrics on/off output" off on;
  (* and the instrumented run actually recorded something *)
  let s = with_metrics true Metrics.snapshot in
  check bool_ "instrumented run recorded counters" true
    (List.mem_assoc "lts/states" s.Metrics.counters);
  Metrics.reset ()

let test_jsonl_round_trip () =
  with_metrics true @@ fun () ->
  Metrics.reset ();
  ignore (Metrics.span "rt/alpha" (fun () -> 1));
  ignore (Metrics.span "rt/beta" (fun () -> 2));
  let s = Metrics.snapshot () in
  let lines =
    Metrics.spans_to_jsonl s |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check int_ "one line per span" (List.length s.Metrics.spans)
    (List.length lines);
  List.iter2
    (fun line (sp : Metrics.span_record) ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "unparsable JSONL line %S: %s" line e
      | Ok j ->
          let str k = Option.bind (Json.member k j) Json.to_str_opt in
          let num k = Option.bind (Json.member k j) Json.to_int_opt in
          check (Alcotest.option Alcotest.string) "name"
            (Some sp.Metrics.sp_name) (str "name");
          check (Alcotest.option int_) "start_ns"
            (Some sp.Metrics.sp_start_ns) (num "start_ns");
          check (Alcotest.option int_) "dur_ns"
            (Some sp.Metrics.sp_dur_ns) (num "dur_ns");
          check (Alcotest.option int_) "domain"
            (Some sp.Metrics.sp_domain) (num "domain"))
    lines s.Metrics.spans;
  Metrics.reset ()

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_prometheus_export () =
  with_metrics true @@ fun () ->
  Metrics.reset ();
  Metrics.add "prom/events" 42;
  Metrics.observe "prom/width" 5;
  Metrics.observe "prom/width" 300;
  let s = Metrics.snapshot () in
  let text = Metrics.to_prometheus s in
  check bool_ "counter series present" true
    (contains ~needle:"mdpriv_prom_events_total 42" text);
  check bool_ "histogram count present" true
    (contains ~needle:"mdpriv_prom_width_count 2" text);
  check bool_ "histogram sum present" true
    (contains ~needle:"mdpriv_prom_width_sum 305" text);
  check bool_ "+Inf bucket present" true
    (contains ~needle:"le=\"+Inf\"} 2" text);
  Metrics.reset ()

let test_phase_table () =
  with_metrics true @@ fun () ->
  Metrics.reset ();
  ignore (Metrics.span "phase/explore" (fun () -> Sys.opaque_identity 1));
  ignore (Metrics.span "phase/analyse" (fun () -> Sys.opaque_identity 2));
  ignore (Metrics.span "other/span" (fun () -> Sys.opaque_identity 3));
  let s = Metrics.snapshot () in
  let rows = Metrics.phase_table ~wall_s:1.0 s in
  check int_ "two phase rows" 2 (List.length rows);
  check bool_ "execution order preserved" true
    (List.map (fun (n, _, _) -> n) rows = [ "explore"; "analyse" ]);
  List.iter
    (fun (_, secs, frac) ->
      check bool_ "seconds non-negative" true (secs >= 0.);
      check bool_ "fraction = secs / wall" true
        (Float.abs (frac -. secs) < 1e-9))
    rows;
  Metrics.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "metrics",
        [
          Alcotest.test_case "merge deterministic across jobs" `Quick
            test_merge_deterministic;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_no_op;
          Alcotest.test_case "analysis output byte-identical" `Quick
            test_analysis_byte_identical;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_export;
          Alcotest.test_case "phase table" `Quick test_phase_table;
        ] );
    ]
