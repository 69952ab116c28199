(* The benchmark suite: five workloads, one schema.

     suite.exe [--workload NAME]... [--seed N] [--seconds S] [--runs N]
               [--trace [0|1]] [--smoke] [--models DIR] [--out DIR]
     suite.exe --compare BASE.json NEW.json

   Each (workload, run) executes in a child process (the suite re-runs
   itself with --child), which sets up, measures for S seconds and
   prints one JSON result line. The parent prints every metric by name
   and unit, writes OUT/BENCH.json and ends its output with one JSON
   line: {"correct", "attempted", "failed", "metrics"}. With --trace the
   child splits the time between untraced ops (end-to-end metrics) and
   traced ones (per-layer metrics, spans in OUT/trace-NAME.jsonl), and
   the result line carries the per-layer metrics. The exit code is
   non-zero when any op failed or any answer digest was wrong. *)

module Json = Util.Json

(* ----- metric definitions ----- *)

type def = { name : string; unit : string; better : string; bound : float }

(* Every workload reports every one of these; one bound per metric
   covers all workloads. Times are normalised to a fixed host speed
   (Host) and still spread by up to a tenth of their median over ten
   runs on the shared 2-vCPU host the suite was calibrated on, so they
   get the widest bound the benchmark allows; peak memory spreads by up
   to 0.04 and gets about three times that (README). *)
let end_to_end =
  let d name unit better bound = { name; unit; better; bound } in
  [
    d "setup_s" "s" "lower" 0.25;
    d "answer_ms" "ms" "lower" 0.25;
    d "tail_ms" "ms" "lower" 0.25;
    d "peak_rss_mb" "MiB" "lower" 0.15;
    d "throughput_per_s" "1/s" "higher" 0.25;
  ]

let whatif_classes = [ "unchanged"; "delta"; "cone"; "replay"; "full_rerun" ]

let per_layer =
  let d name unit better = { name; unit; better; bound = 0. } in
  [
    d "generate.run_s" "s" "lower";
    d "lts.states" "count" "lower";
    d "lts.transitions" "count" "lower";
    d "lts.states_per_s" "1/s" "higher";
    d "lts.dedup_hit_ratio" "ratio" "lower";
    d "lts.bytes_per_state" "B" "lower";
    d "lts.resident_mb" "MiB" "lower";
    d "gc.top_heap_mb" "MiB" "lower";
    d "gc.major_collections" "count" "lower";
    d "spill.mb" "MiB" "lower";
    d "spill.chunks" "count" "lower";
    d "spill.faults" "count" "lower";
    d "spill.leftover_dirs" "count" "lower";
    d "risk_plan.compile_s" "s" "lower";
    d "risk_plan.entries" "count" "lower";
    d "risk_plan.analyse_s" "s" "lower";
    d "risk_plan.findings" "count" "lower";
    d "consistency.check_s" "s" "lower";
    d "analysis.render_s" "s" "lower";
    d "analysis.render_mb" "MB" "lower";
    d "lts_render.summary_s" "s" "lower";
    d "whatif.prepare_s" "s" "lower";
  ]
  @ List.concat_map
      (fun c ->
        let cheap = List.mem c [ "unchanged"; "delta"; "cone" ] in
        [
          d ("whatif." ^ c ^ "_n") "count" (if cheap then "higher" else "lower");
          d ("whatif." ^ c ^ "_s") "s" "lower";
          d ("whatif." ^ c ^ "_p50_ms") "ms" "lower";
        ])
      whatif_classes
  @ [
      d "whatif.answered_ratio" "ratio" "higher";
      d "dsl.parse_s" "s" "lower";
      d "population.simulate_s" "s" "lower";
      d "population.classes_s" "s" "lower";
      d "population.class_ratio" "ratio" "lower";
      d "population.analyse_s" "s" "lower";
      d "engine.result_hit_ratio" "ratio" "higher";
      d "engine.artifact_misses" "count" "lower";
      d "engine.warm_ms_p50" "ms" "lower";
      d "engine.cold_ms_p50" "ms" "lower";
      d "server.queue_depth_p99" "count" "lower";
      d "server.wait_ms_p50" "ms" "lower";
      d "server.busy_frac" "ratio" "lower";
    ]
  @ List.map
      (fun s -> d ("server.status." ^ s ^ "_n") "count" (if s = "ok" then "higher" else "lower"))
      [ "ok"; "error"; "cancelled"; "overloaded"; "breaker_open"; "state_limit"; "shutting_down" ]
  @ [
      d "serve.gen_late_ms_p99" "ms" "lower";
      d "unattributed_s" "s" "lower";
      d "trace.overhead_frac" "ratio" "lower";
    ]

(* Answer digests at seeds 42 and 7, full-size inputs, taken on the
   commit that added the suite (its library is the one the tier-1 tests
   cross-check against their oracles). *)
let expected =
  [
    ("risk-large", [ (42, "f7dcf552d29a1930fb15f38335e912e9"); (7, "c99eb1766057cfab83a0d7d4fa4ce842") ]);
    ("explore-spill", [ (42, "4ed2c5480f312339b9f84d7f8a8a4ed4"); (7, "4ed2c5480f312339b9f84d7f8a8a4ed4") ]);
    ("sweep-exact", [ (42, "8c65f1ed7d2cae93703eaa1c24d407b8"); (7, "e1de736d8fe61f968d21637a20550d2b") ]);
    ("population-100k", [ (42, "085ff790d4c4667f939125c4f87d7718"); (7, "cecc0234ac0e2618360edc6ea9a00fc8") ]);
    ("serve-mix", [ (42, "3a25eafd815d560b3f7b74d156cd40e6"); (7, "de12e4578092868db298e06d7aee5619") ]);
  ]

let expected_error (p : Batch.params) name digest =
  match List.assoc_opt name expected with
  | Some seeds when not p.smoke -> (
    match List.assoc_opt p.seed seeds with
    | Some d when d <> digest -> Some (Printf.sprintf "answer digest %s, expected %s" digest d)
    | _ -> None)
  | _ -> None

(* ----- one workload in this process ----- *)

type result = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;
  errors : string list;
  metrics : (string * float) list;
  detail : Json.t list;
}

let batch =
  [
    ("risk-large", Batch.risk_large);
    ("explore-spill", Batch.explore_spill);
    ("sweep-exact", Batch.sweep_exact);
    ("population-100k", Batch.population);
  ]

let workloads = List.map fst batch @ [ "serve-mix" ]

(* Set-up time is a metric of its own, so work moved into set-up shows.
   Before every batch op the set-up is repeated for at least 10 ms and
   its mean taken; serve-mix sets up three times. [setup_s] is the median
   of these, normalised like every other time (Host). *)
let mean_setup_s mk =
  let t0 = Util.now_ns () and k = ref 0 in
  while !k < 3 || Util.secs_since t0 < 0.01 do
    ignore (Sys.opaque_identity (mk ()));
    incr k
  done;
  Util.secs_since t0 /. float_of_int !k

(* What a measured op leaves behind: no reference to its answer, so the
   next op starts from an empty heap. *)
type op_rec = {
  wall : float;  (** seconds, as measured *)
  factor : float;  (** [Host.factor] from samples just before and after *)
  setup : float;  (** normalised mean set-up seconds, just before the op *)
  facts : (string * float) list;
  majors : int;
}

let norm r = r.wall *. r.factor

let op_json r =
  Json.Obj
    [ ("wall_s", Json.Num r.wall); ("factor", Json.Num r.factor); ("setup_s", Json.Num r.setup) ]

let run_batch name mk (p : Batch.params) ~seconds ~trace =
  let (inst : Batch.instance) = mk p in
  let errors = ref [] and attempted = ref 0 and failed = ref 0 in
  let fail msg =
    incr failed;
    errors := msg :: !errors
  in
  let reference = ref None and run_digest = ref "" in
  (* The host samples run on a collected heap, so what the op leaves
     behind cannot slow the reference work. *)
  let one run =
    let setup = mean_setup_s (fun () -> mk p) in
    Gc.full_major ();
    let before = Host.sample () in
    let majors0 = (Gc.quick_stat ()).major_collections in
    let t0 = Util.now_ns () in
    let out = try Ok (run ()) with e -> Error (Printexc.to_string e) in
    let wall = Util.secs_since t0 in
    let majors = (Gc.quick_stat ()).major_collections - majors0 in
    incr attempted;
    (match out with
    | Error e -> fail e
    | Ok (o : Batch.op_out) -> (
      let first = !reference = None in
      match try o.finish ~first with e -> Error (Printexc.to_string e) with
      | Error e -> fail e
      | Ok extra -> (
        match !reference with
        | None ->
          reference := Some o.digest;
          run_digest := if extra = "" then o.digest else Util.hex (o.digest ^ extra)
        | Some d -> if d <> o.digest then fail "answer digest differs from the run's first op")));
    let facts = match out with Ok o -> o.facts | Error _ -> [] in
    Gc.full_major ();
    let after = Host.sample () in
    { wall; factor = Host.factor ~before ~after; setup = setup *. Host.factor ~before ~after:before; facts; majors }
  in
  (* Ops until the next one would overrun the budget; at least one. *)
  let loop budget run =
    let t_start = Util.now_ns () in
    let rec go acc last =
      if acc <> [] && Util.secs_since t_start +. last > budget then List.rev acc
      else
        let t0 = Util.now_ns () in
        let r = one run in
        go (r :: acc) (Util.secs_since t0)
    in
    go [] 0.
  in
  let untraced = loop (if trace then seconds /. 2. else seconds) inst.op in
  let e2e =
    [
      ("setup_s", Util.median (List.map (fun r -> r.setup) untraced));
      ("answer_ms", 1e3 *. Util.median (List.map norm untraced));
      ("tail_ms", 1e3 *. Util.tail (List.map norm untraced));
      ("peak_rss_mb", Util.peak_rss_mb ());
      ( "throughput_per_s",
        float_of_int (List.length untraced) /. List.fold_left (fun a r -> a +. norm r) 0. untraced );
      ("wall.answer_ms", 1e3 *. Util.median (List.map (fun r -> r.wall) untraced));
      ("host.factor", Util.median (List.map (fun r -> r.factor) untraced));
    ]
  in
  let layers =
    if not trace then []
    else begin
      Mdp_obs.Metrics.reset ();
      Mdp_obs.Metrics.set_enabled true;
      let tr = Trace.create () in
      let traced = loop (seconds /. 2.) (fun () -> Trace.op tr (fun () -> inst.traced tr)) in
      Mdp_obs.Metrics.set_enabled false;
      Trace.write_jsonl tr ~workload:name (Filename.concat p.out ("trace-" ^ name ^ ".jsonl"));
      (* One breakdown per traced op, in op order, with its factor. *)
      let bds = List.map2 (fun op r -> (Trace.breakdown tr op, r.factor)) (Trace.ops tr) traced in
      List.iter
        (fun (b, _) ->
          if not (Trace.accounts_for_wall b) then fail "span self times do not sum to the op wall")
        bds;
      let s ns f = float_of_int ns /. 1e9 *. f in
      let self_s name =
        Util.median
          (List.map
             (fun (b, f) -> s (Option.value (List.assoc_opt name b.Trace.self_ns) ~default:0) f)
             bds)
      in
      let layer_names =
        List.sort_uniq compare (List.concat_map (fun (b, _) -> List.map fst b.Trace.self_ns) bds)
      in
      let last = fst (List.nth bds (List.length bds - 1)) in
      let whatif =
        List.concat_map
          (fun c ->
            let n = "whatif." ^ c in
            let durs =
              List.concat_map
                (fun (b, f) ->
                  List.map (fun ns -> s ns f *. 1e3)
                    (Option.value (List.assoc_opt n b.Trace.durations) ~default:[]))
                bds
            in
            [
              (n ^ "_n", float_of_int (List.length (Option.value (List.assoc_opt n last.durations) ~default:[])));
              (n ^ "_p50_ms", Util.median durs);
            ])
          whatif_classes
      in
      let facts = (List.nth traced (List.length traced - 1)).facts in
      let gen_s = self_s "generate.run" in
      let states = Option.value (List.assoc_opt "lts.states" facts) ~default:0. in
      List.map (fun n -> (n ^ "_s", self_s n)) layer_names
      @ whatif @ facts
      @ [
          ("unattributed_s", Util.median (List.map (fun (b, f) -> s b.Trace.unattributed_ns f) bds));
          ( "trace.overhead_frac",
            (Util.median (List.map norm traced) /. Util.median (List.map norm untraced)) -. 1. );
          ("lts.dedup_hit_ratio", Util.dedup_hit_ratio ());
          ("lts.states_per_s", if gen_s > 0. then states /. gen_s else 0.);
          ("gc.major_collections", Util.median (List.map (fun r -> float_of_int r.majors) traced));
          ("gc.top_heap_mb", Util.top_heap_mb ());
        ]
    end
  in
  let spill = Batch.spill_dir p in
  let leftovers = Batch.leftover_dirs spill in
  Util.remove_tree spill;
  Option.iter fail (expected_error p name !run_digest);
  {
    workload = name;
    seed = p.seed;
    correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    digest = !run_digest;
    errors = List.rev !errors;
    metrics = e2e @ layers @ [ ("spill.leftover_dirs", float_of_int leftovers) ];
    detail = List.map op_json untraced;
  }

let run_serve (p : Batch.params) ~seconds ~trace =
  let run_s = if trace then seconds /. 2. else seconds in
  let limit = if p.smoke then infinity else Serve_mix.limit_ms in
  let setups = ref [] in
  (* One set-up, timed and normalised with host samples around it. *)
  let set_up () =
    let before = Host.sample () in
    let t0 = Util.now_ns () in
    let s = Serve_mix.setup p ~seconds:run_s in
    let t = Util.secs_since t0 in
    setups := (t *. Host.factor ~before ~after:(Host.sample ())) :: !setups;
    s
  in
  let s = set_up () in
  let v = Serve_mix.judge s (Serve_mix.run s) ~limit in
  let peak_rss_mb = Util.peak_rss_mb () in
  let digest = s.answer_digest in
  (* Two more set-ups, each from a collected heap that no longer holds
     the run's engine and caches, as the first one started. *)
  for _ = 1 to 2 do
    Gc.full_major ();
    ignore (set_up ())
  done;
  let setup_s = Util.median !setups in
  let failed = ref v.failed and errors = ref v.errors and attempted = ref v.attempted in
  let layers =
    if not trace then []
    else begin
      let s2 = Serve_mix.setup p ~seconds:run_s in
      let before = Mdp_serve.Engine.health_json s2.engine in
      Mdp_obs.Metrics.reset ();
      Mdp_obs.Metrics.set_enabled true;
      let o2 = Serve_mix.run s2 in
      Mdp_obs.Metrics.set_enabled false;
      let v2 = Serve_mix.judge s2 o2 ~limit in
      let replay_engine = (Serve_mix.setup p ~seconds:run_s).engine in
      let layers, mismatches = Serve_mix.layers s2 o2 ~before ~replay_engine in
      let digest_errors =
        if s2.answer_digest <> digest then [ "traced answer digest differs" ] else []
      in
      attempted := !attempted + v2.attempted;
      failed := !failed + v2.failed + List.length mismatches + List.length digest_errors;
      errors := !errors @ v2.errors @ mismatches @ digest_errors;
      layers
      @ [
          ("trace.overhead_frac", (v2.cold_p50_ms /. v.cold_p50_ms) -. 1.);
          ("gc.top_heap_mb", Util.top_heap_mb ());
        ]
    end
  in
  Option.iter
    (fun e ->
      incr failed;
      errors := !errors @ [ e ])
    (expected_error p "serve-mix" digest);
  {
    workload = "serve-mix";
    seed = p.seed;
    correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    digest;
    errors = !errors;
    metrics =
      [
        ("setup_s", setup_s);
        ("answer_ms", v.cold_p50_ms);
        ("tail_ms", v.tail_ms);
        ("peak_rss_mb", peak_rss_mb);
        ("throughput_per_s", v.throughput);
      ]
      @ v.steps @ layers;
    detail = [];
  }

(* ----- results as JSON ----- *)

let result_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.int r.seed);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("digest", Json.Str r.digest);
      ("errors", Json.List (List.map (fun e -> Json.Str e) r.errors));
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.metrics));
      ("ops", Json.List r.detail);
    ]

let result_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str_opt in
  let int k = Option.value (Option.map int_of_float (Util.num_member k j)) ~default:0 in
  match (str "workload", Json.member "metrics" j) with
  | Some workload, Some (Json.Obj ms) ->
    Some
      {
        workload;
        seed = int "seed";
        correct = Json.member "correct" j = Some (Json.Bool true);
        attempted = int "attempted";
        failed = int "failed";
        digest = Option.value (str "digest") ~default:"";
        errors =
          List.filter_map Json.to_str_opt
            (Option.value (Option.bind (Json.member "errors" j) Json.to_list_opt) ~default:[]);
        metrics = List.filter_map (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None) ms;
        detail = Option.value (Option.bind (Json.member "ops" j) Json.to_list_opt) ~default:[];
      }
  | _ -> None

let defs_json defs =
  Json.List
    (List.map
       (fun d ->
         Json.Obj
           ([ ("name", Json.Str d.name); ("unit", Json.Str d.unit); ("better", Json.Str d.better) ]
           @ if d.bound > 0. then [ ("bound", Json.Num d.bound) ] else []))
       defs)

(* ----- parent ----- *)

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable runs : int;
  mutable trace : bool;
  mutable smoke : bool;
  mutable models : string;
  mutable out : string;
  mutable child : string option;
  mutable compare : (string * string) option;
}

let usage () =
  prerr_endline
    "usage: suite.exe [--workload NAME]... [--seed N] [--seconds S] [--runs N] [--trace [0|1]]\n\
    \                 [--smoke] [--models DIR] [--out DIR]\n\
    \       suite.exe --compare BASE.json NEW.json\n\
     workloads: risk-large explore-spill sweep-exact population-100k serve-mix";
  exit 2

let parse_args argv =
  let o =
    { names = []; seed = 42; seconds = None; runs = 1; trace = false; smoke = false;
      models = "models"; out = Filename.concat "bench" (Filename.concat "suite" "out");
      child = None; compare = None }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> if List.mem w workloads then (o.names <- o.names @ [ w ]; go rest) else usage ()
    | "--seed" :: n :: rest -> o.seed <- int n; go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some f when f > 0. -> o.seconds <- Some f | _ -> usage ());
      go rest
    | "--runs" :: n :: rest -> o.runs <- max 1 (int n); go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--models" :: d :: rest -> o.models <- d; go rest
    | "--out" :: d :: rest -> o.out <- d; go rest
    | "--child" :: w :: rest -> if List.mem w workloads then (o.child <- Some w; go rest) else usage ()
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* The measured time per run: sized so the five workloads finish in
   about two minutes; a smoke run only checks that everything works. *)
let seconds_of o = Option.value o.seconds ~default:(if o.smoke then 1. else 20.)

let params o seed = { Batch.seed; smoke = o.smoke; models = o.models; out = o.out }

let run_child o name =
  let p = params o o.seed in
  let seconds = seconds_of o in
  Host.warm ();
  let r =
    match List.assoc_opt name batch with
    | Some mk -> run_batch name mk p ~seconds ~trace:o.trace
    | None -> run_serve p ~seconds ~trace:o.trace
  in
  print_endline (Util.json_string (result_json r));
  exit 0

let spawn o name seed =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.17g" (seconds_of o); "--models"; o.models; "--out"; o.out ]
    @ (if o.trace then [ "--trace" ] else [])
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  let parsed =
    match List.rev lines with
    | last :: _ -> Option.bind (Result.to_option (Json.of_string last)) result_of_json
    | [] -> None
  in
  match (status, parsed) with
  | Unix.WEXITED 0, Some r -> r
  | _ ->
    { workload = name; seed; correct = false; attempted = 1; failed = 1; digest = "";
      errors = [ "child process failed" ]; metrics = []; detail = [] }

let print_runs name runs =
  let defs = end_to_end @ per_layer in
  List.iter
    (fun (r : result) ->
      Printf.printf "%s (seed %d): %s, %d attempted, %d failed, digest %s\n" name r.seed
        (if r.correct then "correct" else "INCORRECT") r.attempted r.failed r.digest;
      List.iter (fun e -> Printf.eprintf "%s (seed %d) error: %s\n%!" name r.seed e) r.errors;
      List.iter
        (fun d ->
          match List.assoc_opt d.name r.metrics with
          | Some v -> Printf.printf "  %-28s %14.4f %s\n" d.name v d.unit
          | None -> ())
        defs)
    runs

let median_metrics runs =
  let names = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.metrics) runs) in
  List.map
    (fun n -> (n, Util.median (List.filter_map (fun r -> List.assoc_opt n r.metrics) runs)))
    names

let main o =
  let names = if o.names = [] then workloads else o.names in
  Util.mkdir_p o.out;
  let results =
    List.map (fun name -> (name, List.init o.runs (fun i -> spawn o name (o.seed + i)))) names
  in
  List.iter (fun (name, runs) -> print_runs name runs) results;
  let all = List.concat_map snd results in
  let bench =
    Json.Obj
      [
        ("schema", Json.Str "mdpriv-bench-suite/1");
        ("machine", Util.machine ());
        ( "settings",
          Json.Obj
            [ ("seed", Json.int o.seed); ("seconds", Json.Num (seconds_of o)); ("runs", Json.int o.runs);
              ("trace", Json.Bool o.trace); ("smoke", Json.Bool o.smoke) ] );
        ("end_to_end", defs_json end_to_end);
        ("per_layer", defs_json per_layer);
        ("workloads", Json.Obj (List.map (fun (n, runs) -> (n, Json.List (List.map result_json runs))) results));
      ]
  in
  let path = Filename.concat o.out "BENCH.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Util.json_string bench);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path;
  (* The closing line: the metric set of the mode, each a median over
     runs, named plainly for one workload and NAME/metric for several. *)
  let wanted = List.map (fun d -> (d.name, d.unit)) (if o.trace then per_layer else end_to_end) in
  let metrics =
    List.concat_map
      (fun (name, runs) ->
        let meds = median_metrics runs in
        List.map
          (fun (m, unit) ->
            ( (if List.length names = 1 then m else name ^ "/" ^ m),
              Json.Obj
                [ ("value", Json.Num (Option.value (List.assoc_opt m meds) ~default:0.));
                  ("unit", Json.Str unit) ] ))
          wanted)
      results
  in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 all in
  let correct = List.for_all (fun r -> r.correct) all in
  print_endline
    (Util.json_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int (max 1 (List.fold_left (fun n r -> n + r.attempted) 0 all)));
            ("failed", Json.int failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

(* ----- compare ----- *)

let load path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "%s: %s\n" path e;
    exit 2

let runs_of j name =
  Option.bind (Json.member "workloads" j) (Json.member name)
  |> Fun.flip Option.bind Json.to_list_opt
  |> Option.value ~default:[]
  |> List.filter_map result_of_json

(* Per (workload, metric): both medians and quartiles over the runs, and
   a verdict. A pair whose run-to-run spread exceeds the bound is
   unresolved unless every new run beats every base run. *)
let compare_files base_path new_path =
  let base = load base_path and next = load new_path in
  let names =
    match Json.member "workloads" next with
    | Some (Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  let worse = ref false in
  Printf.printf "%-16s %-17s %30s %30s %8s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun name ->
      let a = runs_of base name and b = runs_of next name in
      List.iter
        (fun d ->
          let vals runs = List.filter_map (fun r -> List.assoc_opt d.name r.metrics) runs in
          match (vals a, vals b) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let q1a, ma, q3a = Util.quartiles va and q1b, mb, q3b = Util.quartiles vb in
            let share q1 q3 m = (q3 -. q1) /. Float.max (Float.abs m) 1e-12 in
            let spread = Float.max (share q1a q3a ma) (share q1b q3b mb) in
            let sign = if d.better = "lower" then 1. else -1. in
            let change = (mb -. ma) /. Float.max (Float.abs ma) 1e-12 in
            let worse_by = sign *. change in
            let all_better =
              List.for_all (fun x -> List.for_all (fun y -> sign *. (x -. y) < 0.) va) vb
            in
            let verdict =
              if spread > d.bound then if all_better then "better" else "unresolved"
              else if worse_by > d.bound then "worse"
              else if -.worse_by > spread && all_better then "better"
              else "within bound"
            in
            if verdict = "worse" then worse := true;
            Printf.printf "%-16s %-17s %12.4g [%7.4g, %7.4g] %12.4g [%7.4g, %7.4g] %+7.1f%%  %s\n"
              name d.name ma q1a q3a mb q1b q3b (100. *. change) verdict)
        end_to_end)
    names;
  exit (if !worse then 1 else 0)

let () =
  let o = parse_args Sys.argv in
  match (o.compare, o.child) with
  | Some (a, b), _ -> compare_files a b
  | None, Some name -> run_child o name
  | None, None -> main o
