module Json = Mdp_prelude.Json
module Metrics = Mdp_obs.Metrics
module Clock = Mdp_obs.Clock
module Cancel = Mdp_obs.Cancel
module C = Mdp_core
module Synthetic = Mdp_scenario.Synthetic
module Field = Mdp_dataflow.Field

type config = {
  artifact_cap : int;
  result_cap : int;
  stale_cap : int;
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  default_deadline_ms : int option;
  max_states : int;
  mem_budget : int option;
}

let default_config =
  {
    artifact_cap = 8;
    result_cap = 64;
    stale_cap = 32;
    breaker_threshold = 3;
    breaker_cooldown_ms = 5000;
    default_deadline_ms = None;
    (* The packed LTS engine stores states at a few bytes each, so the
       per-request guard can afford 10x the boxed-era default without
       risking the process. *)
    max_states = 2_000_000;
    (* No resident budget by default: a daemon that should cap its RAM
       and spill compilations to disk opts in (mdpriv serve
       --mem-budget). *)
    mem_budget = None;
  }

(* The compiled state of one model: everything downstream of the DSL
   parse. [plan] is compiled on first risk/population use; the [lock]
   guards that one mutable field, so the plan is compiled once, and
   every request that uses the plan runs under it. *)
type artifact = {
  universe : C.Universe.t;
  lts : C.Plts.t;
  consistency : C.Consistency.gap list;
  options : C.Generate.options;
      (** Exactly what the LTS was generated with — the what-if
          classifier needs them to bound an edit's damage. *)
  lock : Mutex.t;
  mutable plan : C.Risk_plan.t option;
}

type t = {
  config : config;
  artifacts : artifact Cache.t;
  class_sets : (C.User_profile.t * int) list Cache.t;
  results : Json.t Cache.t;
  breaker : Breaker.t;
}

let create ?(config = default_config) () =
  {
    config;
    artifacts = Cache.create ~name:"serve/artifacts" ~cap:config.artifact_cap ();
    class_sets = Cache.create ~name:"serve/classes" ~cap:config.artifact_cap ();
    results =
      Cache.create ~name:"serve/results" ~cap:config.result_cap
        ~stale_cap:config.stale_cap ();
    breaker =
      Breaker.create ~threshold:config.breaker_threshold
        ~cooldown_ms:config.breaker_cooldown_ms ();
  }

let deadline_ms_for t (a : Protocol.analysis) =
  match a.deadline_ms with Some _ as d -> d | None -> t.config.default_deadline_ms

(* ----- keys -----

   Everything is keyed by content, not by name: a file model hashes its
   bytes (an edited file is a different model), a synthetic spec hashes
   its canonical rendering, an inline model its source text. The model
   hash is also the breaker key, so breaker state survives cache
   eviction but never outlives a model edit. *)

type source = Synthetic of Synthetic.spec | Dsl of string

let canonical_spec (s : Synthetic.spec) =
  Printf.sprintf "synthetic:%d-%d-%d-%d-%d@%d" s.nactors s.nfields
    s.flows_per_service s.nstores s.nservices s.seed

let resolve_model (m : Protocol.model_ref) =
  match m with
  | Protocol.Inline text ->
    Ok (Digest.to_hex (Digest.string ("inline\x00" ^ text)), Dsl text)
  | Protocol.Named name -> (
    match Synthetic.spec_of_string name with
    | Some (Ok spec) ->
      Ok (Digest.to_hex (Digest.string (canonical_spec spec)), Synthetic spec)
    | Some (Error msg) -> Error msg
    | None -> (
      match In_channel.with_open_bin name In_channel.input_all with
      | text -> Ok (Digest.to_hex (Digest.string ("file\x00" ^ text)), Dsl text)
      | exception Sys_error msg -> Error msg))

let rec kind_essence = function
  | Protocol.Lts_stats -> "lts"
  | Protocol.Risk p ->
    let agreed = List.sort String.compare p.agreed in
    let sens =
      List.sort compare p.sensitivities
      |> List.map (fun (f, s) -> Printf.sprintf "%s=%.17g" f s)
    in
    "risk|" ^ String.concat "," agreed ^ "|" ^ String.concat "," sens
  | Protocol.Population p ->
    Printf.sprintf "population|%d|%d|%.17g" p.psize p.pseed p.pagree
  | Protocol.Whatif w ->
    (* Edit-delta keys: canonicalise parseable edit batches — per-edit
       normal form plus [Edit.canonical_batch]'s order/dedup rules — so
       semantically equal batches ("read,write" vs "write,read",
       reordered independent edits) share one cache entry, while a
       batch with an extra (possibly vacuous) edit keys separately.
       Unparseable specs key on their raw text (the request will be
       rejected downstream anyway, uncached). *)
    let edits =
      match C.Edit.parse_all w.wedits with
      | Ok es -> List.map C.Edit.to_string (C.Edit.canonical_batch es)
      | Error _ ->
        List.map
          (fun s ->
            match C.Edit.parse s with
            | Ok e -> C.Edit.to_string e
            | Error _ -> s)
          w.wedits
    in
    Printf.sprintf "whatif|%s|%s|diff=%b%s"
      (kind_essence (Protocol.Risk w.wprofile))
      (String.concat ";" edits) w.wdiff
      (match w.wpop with
      | None -> ""
      | Some p -> Printf.sprintf "|pop=%d:%d:%.17g" p.psize p.pseed p.pagree)

let artifact_key model_key max_states =
  Printf.sprintf "%s#ms=%d" model_key max_states

let result_key akey kind = akey ^ "#" ^ Digest.to_hex (Digest.string (kind_essence kind))

let class_key akey (p : Protocol.pop_spec) =
  Printf.sprintf "%s#classes:%d:%d:%.17g" akey p.psize p.pseed p.pagree

(* ----- rendering ----- *)

let level l = Json.Str (C.Level.to_string l)

let lts_body (a : artifact) =
  Json.Obj
    [
      ("states", Json.int (C.Plts.num_states a.lts));
      ("transitions", Json.int (C.Plts.num_transitions a.lts));
      ("deterministic", Json.Bool (C.Plts.is_deterministic a.lts));
      ("consistency_gaps", Json.List (List.map C.Report.consistency_gap a.consistency));
    ]

let risk_body (a : artifact) (report : C.Disclosure_risk.report) =
  Json.Obj
    [
      ("worst", level (C.Disclosure_risk.max_level report));
      ( "non_allowed",
        Json.List (List.map (fun s -> Json.Str s) report.non_allowed) );
      ("findings", Json.List (List.map C.Report.finding report.findings));
      ("exposures", Json.List (List.map C.Report.finding report.exposures));
      ("consistency_gaps", Json.int (List.length a.consistency));
    ]

let signature_json (s : C.Risk_diff.signature) =
  Json.Obj
    [
      ("actor", Json.Str s.actor);
      ("store", match s.store with Some st -> Json.Str st | None -> Json.Null);
      ("kind", Json.Str (Format.asprintf "%a" C.Action.pp_kind s.kind));
      ("fields", Json.List (List.map (fun f -> Json.Str f) s.fields));
    ]

let change_json (c : C.Risk_diff.change) =
  Json.Obj
    [
      ("signature", signature_json c.signature);
      ("before", level c.before);
      ("after", level c.after);
    ]

let diff_json (d : C.Risk_diff.t) =
  Json.Obj
    [
      ("removed", Json.List (List.map change_json d.removed));
      ("added", Json.List (List.map change_json d.added));
      ("changed", Json.List (List.map change_json d.changed));
      ("unchanged", Json.int d.unchanged);
      ("improved", Json.Bool (C.Risk_diff.improved d));
    ]

let population_body (agg : C.Population.aggregate) =
  Json.Obj
    [
      ("total", Json.int agg.total);
      ( "by_level",
        Json.Obj
          (List.map (fun (l, n) -> (C.Level.to_string l, Json.int n)) agg.by_level)
      );
      ( "hotspots",
        Json.List
          (List.map
             (fun (h : C.Population.hotspot) ->
               Json.Obj
                 [
                   ("actor", Json.Str h.actor);
                   ( "store",
                     match h.store with Some s -> Json.Str s | None -> Json.Null
                   );
                   ("affected", Json.int h.affected);
                   ("worst", level h.worst);
                 ])
             agg.hotspots) );
    ]

let whatif_body ?population ~diff ~(inv : C.Edit.invalidation) ~before
    ~after_t () =
  let after =
    match after_t.C.Analysis.disclosure with
    | Some r -> r
    | None -> assert false (* whatif always runs with a profile *)
  in
  Json.Obj
    ([
       ("worst_before", level (C.Disclosure_risk.max_level before));
       ("worst_after", level (C.Disclosure_risk.max_level after));
       ("findings_after", Json.int (List.length after.findings));
       ("incremental", Json.Bool (not inv.C.Edit.inv_lts));
       ( "invalidated",
         Json.Obj
           (List.map
              (fun (n, b) -> (n, Json.Bool b))
              (C.Edit.invalidation_flags inv)) );
     ]
    @ (match population with
      | None -> []
      | Some (pop_before, pop_after, reused, reevaluated) ->
        [
          ( "population",
            Json.Obj
              [
                ("before", population_body pop_before);
                ("after", population_body pop_after);
                ("classes_reused", Json.int reused);
                ("classes_reevaluated", Json.int reevaluated);
              ] );
        ])
    @
    if diff then
      [ ("diff", diff_json (C.Risk_diff.diff ~before ~after)) ]
    else [])

(* ----- the pipeline ----- *)

exception Refused of Protocol.status * Json.t

let refuse status body = raise (Refused (status, body))

let refuse_error msg = refuse Protocol.Error_ (Protocol.error_body msg)

let build_model source =
  match source with
  | Synthetic spec -> Synthetic.model spec
  | Dsl text -> (
    match Mdp_dsl.Parser.parse text with
    | Ok m -> (m.diagram, m.policy)
    | Error msg -> refuse_error ("model parse error: " ^ msg))

let compile_artifact t ~cancel ~max_states source =
  Metrics.span "serve/compile" @@ fun () ->
  let diagram, policy = build_model source in
  let universe =
    match C.Universe.make diagram policy with
    | u -> u
    | exception Invalid_argument msg ->
      refuse_error ("policy does not validate: " ^ msg)
  in
  let options =
    {
      C.Generate.default_options with
      max_states;
      mem_budget = t.config.mem_budget;
    }
  in
  let lts = C.Generate.run ~options ?cancel universe in
  {
    universe;
    lts;
    consistency = C.Consistency.check universe;
    options;
    lock = Mutex.create ();
    plan = None;
  }

let with_artifact_lock (a : artifact) f =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

let plan_of a =
  match a.plan with
  | Some p -> p
  | None ->
    let p = C.Risk_plan.compile a.universe a.lts in
    a.plan <- Some p;
    p

let profile_of (p : Protocol.profile_spec) =
  match
    C.User_profile.make
      ~sensitivities:(List.map (fun (f, s) -> (Field.make f, s)) p.sensitivities)
      ~agreed_services:p.agreed ()
  with
  | profile -> profile
  | exception Invalid_argument msg -> refuse_error ("bad profile: " ^ msg)

let classes_for t ~akey ~cancel (a : artifact) (p : Protocol.pop_spec) =
  let key = class_key akey p in
  match Cache.find t.class_sets key with
  | Some cls -> cls
  | None ->
    let spec =
      {
        C.Population.seed = p.pseed;
        size = p.psize;
        westin_mix = C.Population.default_mix;
        agree_probability = p.pagree;
      }
    in
    let profiles =
      C.Population.simulate ?cancel spec (C.Universe.diagram a.universe)
    in
    let cls = C.Population.classes ?cancel a.universe profiles in
    Cache.put t.class_sets key cls;
    cls

let evaluate t ~akey ~cancel (a : artifact) (kind : Protocol.kind) =
  Metrics.span "serve/evaluate" @@ fun () ->
  (match cancel with None -> () | Some c -> Cancel.check c);
  match kind with
  | Protocol.Lts_stats -> lts_body a
  | Protocol.Risk spec ->
    let profile = profile_of spec in
    with_artifact_lock a (fun () ->
        risk_body a (C.Risk_plan.analyse (plan_of a) profile))
  | Protocol.Population pop ->
    let cls = classes_for t ~akey ~cancel a pop in
    with_artifact_lock a (fun () ->
        let plan = plan_of a in
        population_body
          (C.Population.analyse_compiled ?cancel ~plan
             ~classes:cls a.universe a.lts []))
  | Protocol.Whatif w ->
    let profile = profile_of w.wprofile in
    let edits =
      match C.Edit.parse_all w.wedits with
      | Ok es -> es
      | Error msg -> refuse_error ("bad edit: " ^ msg)
    in
    with_artifact_lock a (fun () ->
        Metrics.span "serve/whatif" @@ fun () ->
        let plan = plan_of a in
        (* The baseline report the incremental re-evaluation over the
           (possibly reused) LTS starts from. *)
        let before = C.Risk_plan.analyse plan profile in
        let base =
          {
            C.Analysis.params =
              {
                options = a.options;
                matrix = C.Risk_matrix.default;
                model = C.Disclosure_risk.default_likelihood;
                profile = Some profile;
                bindings = [];
              };
            universe = a.universe;
            lts = a.lts;
            consistency = a.consistency;
            disclosure = Some before;
            pseudonym = [];
            plan = Some plan;
          }
        in
        let inputs = C.Analysis.inputs_of base in
        let after_inputs =
          match C.Edit.apply_all inputs edits with
          | Ok i -> i
          | Error msg -> refuse_error ("edit does not apply: " ^ msg)
        in
        let inv =
          C.Edit.classify ~options:a.options ~universe:a.universe
            ~before:inputs ~after:after_inputs
        in
        let after_t =
          C.Analysis.run_incremental ?cancel ~inv ~previous:base edits
        in
        let population =
          match w.wpop with
          | None -> None
          | Some pop ->
            let cls = classes_for t ~akey ~cancel a pop in
            let cached =
              C.Population.prepare ?cancel ~plan
                ~classes:cls a.universe a.lts []
            in
            let pop_before = C.Population.cached_aggregate cached in
            (* The cached class summaries survive the edit only when
               nothing but the single profile moved — any policy,
               diagram or binding change re-levels every class. *)
            let sigma_only =
              after_inputs.C.Edit.policy == inputs.C.Edit.policy
              && after_inputs.C.Edit.diagram == inputs.C.Edit.diagram
              && after_inputs.C.Edit.bindings == inputs.C.Edit.bindings
            in
            let pop_after, reused, reevaluated =
              match inv.C.Edit.inv_sigma with
              | Some overrides when sigma_only ->
                C.Population.reaggregate ?cancel cached ~overrides
              | _ ->
                (* full recompute against the edited model; the
                   simulated profiles themselves are unchanged *)
                let spec =
                  {
                    C.Population.seed = pop.Protocol.pseed;
                    size = pop.psize;
                    westin_mix = C.Population.default_mix;
                    agree_probability = pop.pagree;
                  }
                in
                let u' = after_t.C.Analysis.universe in
                let profiles =
                  C.Population.simulate ?cancel spec (C.Universe.diagram u')
                in
                let classes = C.Population.classes ?cancel u' profiles in
                let agg =
                  C.Population.analyse_compiled ?cancel
                    ?plan:after_t.C.Analysis.plan ~classes u'
                    after_t.C.Analysis.lts profiles
                in
                (agg, 0, List.length classes)
            in
            Some (pop_before, pop_after, reused, reevaluated)
        in
        whatif_body ?population ~diff:w.wdiff ~inv ~before ~after_t ())

(* Breaker accounting: only evidence that the model itself is too
   expensive (state-limit trips, blown deadlines) counts as a failure.
   Everything else that ends a request admitted as a probe — parse
   errors, bad profiles, client cancels, cache hits — must still
   resolve the probe, so it reports success. *)
let run_analysis t ~cancel ~bkey ~akey (an : Protocol.analysis) source =
  match
    C.Analysis.checked (fun () ->
        let art =
          match Cache.find t.artifacts akey with
          | Some a -> a
          | None ->
            let a =
              compile_artifact t ~cancel
                ~max_states:
                  (min t.config.max_states
                     (Option.value an.max_states ~default:t.config.max_states))
                source
            in
            Cache.put t.artifacts akey a;
            a
        in
        evaluate t ~akey ~cancel art an.kind)
  with
  | Ok body ->
    Breaker.success t.breaker bkey;
    Ok body
  | Error (C.Analysis.State_limit { limit; hint } as failure) ->
    Breaker.failure t.breaker bkey;
    Metrics.incr "serve/state_limit";
    (* Observed sizes at the abort (the raise and this handler run on
       the same worker domain, so the domain-local stats are ours): with
       bytes/state in hand an operator can work out what [--max-states]
       their memory actually affords instead of guessing. *)
    let observed =
      match Mdp_lts.Lts.last_abort_stats () with
      | Some st when st.Mdp_lts.Lts.ab_limit = limit ->
        [
          ("states", Json.int st.Mdp_lts.Lts.ab_states);
          ("transitions", Json.int st.Mdp_lts.Lts.ab_transitions);
          ("bytes_per_state", Json.Num st.Mdp_lts.Lts.ab_bytes_per_state);
          (* Spill occupancy at the abort: an operator tuning a budgeted
             daemon can tell apart "the model is genuinely too big" from
             "the budget forced everything to disk and the guard fired
             anyway" (raise --max-states, not RAM, in the latter case). *)
          ("resident_bytes", Json.int st.Mdp_lts.Lts.ab_resident_bytes);
        ]
        @ (if st.Mdp_lts.Lts.ab_spill_bytes > 0 then
             [ ("spill_bytes", Json.int st.Mdp_lts.Lts.ab_spill_bytes) ]
           else [])
        @ (match st.Mdp_lts.Lts.ab_mem_budget with
          | Some b -> [ ("mem_budget", Json.int b) ]
          | None -> [])
      | _ -> []
    in
    Error
      ( Protocol.State_limit,
        Json.Obj
          ([
             ("message", Json.Str (C.Analysis.failure_message failure));
             ("limit", Json.int limit);
             ("hint", Json.Str hint);
           ]
          @ observed) )
  | Error (C.Analysis.Cancelled { deadline; _ }) ->
    if deadline then Breaker.failure t.breaker bkey
    else Breaker.success t.breaker bkey;
    Metrics.incr "serve/cancelled";
    Error
      ( Protocol.Cancelled (if deadline then `Deadline else `Client),
        Protocol.error_body "request cancelled" )
  | Error (C.Analysis.Spill_io _ as failure) ->
    (* the host's disk failed, not the model: no breaker evidence *)
    Breaker.success t.breaker bkey;
    Error
      ( Protocol.Error_,
        Protocol.error_body (C.Analysis.failure_message failure) )
  | exception Refused (status, body) ->
    Breaker.success t.breaker bkey;
    Error (status, body)

let elapsed_ms_since t0 = float_of_int (Clock.now_ns () - t0) /. 1.e6

let health_json t =
  Json.Obj
    [
      ("artifacts", Cache.stats_json t.artifacts);
      ("results", Cache.stats_json t.results);
      ("classes", Cache.stats_json t.class_sets);
      ("breaker", Breaker.to_json t.breaker);
      ("metrics_enabled", Json.Bool (Metrics.enabled ()));
    ]

let handle t ?cancel ?admitted_ns (req : Protocol.request) =
  let t0 = match admitted_ns with Some n -> n | None -> Clock.now_ns () in
  let respond ?cached ?stale ?body status =
    Protocol.response ?cached ?stale ?body ~elapsed_ms:(elapsed_ms_since t0)
      ~id:req.req_id status
  in
  match req.cmd with
  | Protocol.Ping -> respond Protocol.Ok_ ~body:(Json.Obj [ ("pong", Json.Bool true) ])
  | Protocol.Health -> respond Protocol.Ok_ ~body:(health_json t)
  | Protocol.Metrics ->
    (* Refresh the memory gauges at the scrape point only — never from
       analysis paths, whose snapshots must stay machine-independent. *)
    Metrics.sample_memory ();
    respond Protocol.Ok_
      ~body:
        (Json.Obj
           [
             ("enabled", Json.Bool (Metrics.enabled ()));
             ( "prometheus",
               Json.Str
                 (if Metrics.enabled () then
                    Metrics.to_prometheus (Metrics.snapshot ())
                  else "") );
           ])
  | Protocol.Shutdown ->
    respond Protocol.Ok_ ~body:(Json.Obj [ ("draining", Json.Bool true) ])
  | Protocol.Cancel_request _ ->
    respond Protocol.Error_
      ~body:(Protocol.error_body "cancel requires the server's request registry")
  | Protocol.Analyse an -> (
    match resolve_model an.model with
    | Error msg -> respond Protocol.Error_ ~body:(Protocol.error_body msg)
    | Ok (bkey, source) -> (
      let akey =
        artifact_key bkey
          (min t.config.max_states
             (Option.value an.max_states ~default:t.config.max_states))
      in
      let rkey = result_key akey an.kind in
      match Breaker.admit t.breaker bkey with
      | Breaker.Fast_fail retry_ms ->
        respond Protocol.Breaker_open
          ~body:
            (Json.Obj
               [
                 ( "message",
                   Json.Str
                     "circuit breaker open for this model (repeated \
                      state-limit or deadline failures)" );
                 ("retry_after_ms", Json.int retry_ms);
               ])
      | Breaker.Proceed -> (
        match Cache.find t.results rkey with
        | Some body ->
          Breaker.success t.breaker bkey;
          respond Protocol.Ok_ ~cached:true ~body
        | None -> (
          match run_analysis t ~cancel ~bkey ~akey an source with
          | Ok body ->
            Cache.put t.results rkey body;
            respond Protocol.Ok_ ~body
          | Error (status, body) -> respond status ~body))))

let stale_response t (req : Protocol.request) =
  match req.cmd with
  | Protocol.Analyse an when an.allow_stale -> (
    match resolve_model an.model with
    | Error _ -> None
    | Ok (bkey, _) ->
      let akey =
        artifact_key bkey
          (min t.config.max_states
             (Option.value an.max_states ~default:t.config.max_states))
      in
      Option.map
        (fun body ->
          Metrics.incr "serve/stale_served";
          Protocol.response ~cached:true ~stale:true ~body ~id:req.req_id
            Protocol.Ok_)
        (Cache.find_stale t.results (result_key akey an.kind)))
  | _ -> None
