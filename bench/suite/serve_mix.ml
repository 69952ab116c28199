(* serve-mix: load on an in-process [Server] with the daemon defaults
   (2 workers, queue 32, engine jobs 1, max_states 2M).

   One generator (this domain) sends seeded Poisson arrivals in three
   open-loop steps — R/2, R, 2R — waiting for each step to drain before
   the next. Latency runs from a request's scheduled send, so a stalled
   server also charges the requests queued behind the stall. A closed
   loop follows: the generator keeps [outstanding] requests in the
   server and counts the answers per second, the server's capacity on
   this mix.

   Warm requests are drawn uniformly from a small pool of
   lts/risk/population/whatif queries over a hot set of models, so they
   hit the engine's caches; a [cold_share] are risk queries on a model
   shipped inline, tagged with a tenant k drawn from a pool far larger
   than the caches, so each one parses and compiles a fresh model.

   Every cold query ships the same model ([synthetic:7-9-6], printed as
   DSL): [synthetic:8-10-6@k] itself ranges from a few hundred to twenty
   thousand states as k varies, which made capacity and tail latency
   depend on the seed more than on the program. Risk reports on
   synthetic models run to megabytes (every finding carries its witness
   path) and rendering them would swamp everything else, so the hot
   synthetic model gets no risk queries and cold queries name no
   sensitive field: their cost is the compile — parse, explore,
   consistency check, risk-plan compile — not the report. *)

module S = Mdp_serve
module C = Mdp_core
module Json = Mdp_prelude.Json
module Prng = Mdp_prelude.Prng
module Field = Mdp_dataflow.Field
module Diagram = Mdp_dataflow.Diagram

(* Calibration on a 2-vCPU box (see README). Every open-loop step up to
   2R meets [limit_ms] with room to spare, and few requests at R queue:
   the box's speed swings two- to threefold within minutes, and at
   R = 150 a slow phase put enough requests behind cold compiles that
   the p99 at R spread by half its median over ten runs. Capacity is
   measured by the closed loop instead. *)
let rate = 60.
let smoke_rate = 10.
let cold_share = 0.1
let limit_ms = 1000.

(* Share of the run each open-loop step takes — R/2, R, 2R — and the
   closed loop's share. Step R gets most of it: some 1,000 requests,
   100 of them cold, so its p99 has ten samples beyond it. *)
let step_shares = [| 0.05; 0.7; 0.05 |]
let closed_share = 0.2
let step_rates r = [| r /. 2.; r; 2. *. r |]

(* Each step and the closed loop run as segments of about this length;
   between segments the server drains and the host's speed is sampled,
   and the run's times are normalised with the median sample (Host).
   Per-segment factors tracked the host no better and made the tail and
   capacity noisier. *)
let segment_s = 1.0

let segments share seconds =
  let n = max 1 (int_of_float (Float.round (share *. seconds /. segment_s))) in
  Array.make n (share *. seconds /. float_of_int n)

(* Requests the closed loop keeps in the server: one running and one
   waiting per worker, so no worker idles on the generator, and far
   below the queue's 32, so none is shed. *)
let outstanding = 4

type request = {
  body : string;  (** the request line without its id *)
  cold : bool;
  step : int;  (** open-loop step; 3 in the closed loop *)
  seg : int;  (** open-loop segment, numbered across steps *)
  due_s : float;  (** scheduled send, seconds from the segment's start *)
}

type setup = {
  engine : S.Engine.t;
  schedule : request array;  (** the open loop *)
  open_segs : (int * float) array;  (** step and length of each open-loop segment *)
  closed_segs : float array;  (** length of each closed-loop segment *)
  next_closed : unit -> request;  (** the closed loop's next request *)
  reference : (string, string) Hashtbl.t;
      (** warm request -> body digest, answered sequentially in set-up *)
  cold_reference : string;  (** the body digest every cold request must get *)
  answer_digest : string;  (** of the reference answers *)
}

let line id (r : request) =
  Printf.sprintf "{\"id\":\"%s\",%s" id (String.sub r.body 1 (String.length r.body - 1))

let json_line fields = Json.to_string ~indent:false (Json.Obj fields)

let profile_fields (agreed, sens) =
  [
    ("agree", Json.List (List.map (fun s -> Json.Str s) agreed));
    ("sensitivity", Json.Obj (List.map (fun (f, v) -> (f, Json.Num v)) sens));
  ]

let base_fields (d : Diagram.t) =
  List.filter (fun f -> not (Field.is_anon f)) (Diagram.all_fields d)
  |> List.map Field.name

(* Three seeded profiles, each agreeing to a different non-empty subset
   of the services — all three subsets on the hot models, which have two
   services each — and giving every field a seeded sensitivity. The size
   of a risk report, and so the cost of every cached hit that renders it
   again, follows the agreed services and which fields are sensitive:
   with agreed sets drawn independently one seed's warm pool took 1.7
   times as long to answer as another's, and with two seeded sensitive
   fields per profile the latency of the smart_home risk hits at step R
   summed to 155–552 ms from seed to seed. Here the seed sets only the
   levels. *)
let random_profiles rng (d : Diagram.t) =
  let services = List.map (fun (s : Mdp_dataflow.Service.t) -> s.id) d.services in
  let subsets =
    List.fold_left (fun acc s -> acc @ List.map (fun l -> l @ [ s ]) acc) [ [] ] services
    |> List.filter (( <> ) [])
  in
  List.filteri (fun i _ -> i < 3) (Prng.shuffle rng subsets)
  |> List.map (fun agreed ->
         (agreed, List.map (fun f -> (f, 0.05 *. float_of_int (Prng.range rng 2 19))) (base_fields d)))

(* Single-ACL revocations the sweep would try, plus a σ edit. *)
let random_edits rng (d, policy) (agreed, sens) =
  let profile =
    C.User_profile.make
      ~sensitivities:(List.map (fun (f, v) -> (Field.make f, v)) sens)
      ~agreed_services:agreed ()
  in
  let a = C.Analysis.run ~profile d policy in
  (* Only specs that survive the trip through the wire syntax: revokes
     of anonymised fields do not re-parse to the same edit. *)
  let applies spec =
    match C.Edit.parse spec with
    | Ok e -> Result.is_ok (C.Edit.apply (C.Analysis.inputs_of a) e)
    | Error _ -> false
  in
  let acl =
    match C.Whatif.prepare a with
    | Ok b -> List.filter applies (List.map C.Edit.to_string (C.Whatif.acl_candidates b))
    | Error e -> failwith e
  in
  let pick = List.filteri (fun i _ -> i < 2) (Prng.shuffle rng acl) in
  pick @ [ Printf.sprintf "sensitivity:%s=0.9" (Prng.choose rng (base_fields d)) ]

let load_model name =
  match Mdp_scenario.Synthetic.spec_of_string name with
  | Some (Ok spec) -> Mdp_scenario.Synthetic.model spec
  | _ -> (
    let text = In_channel.with_open_bin name In_channel.input_all in
    match Mdp_dsl.Parser.parse text with
    | Ok m -> (m.diagram, m.policy)
    | Error e -> failwith e)

(* The warm request pool: per hot model one lts query, three risk
   profiles (none on the synthetic model), one population draw and
   three what-if edits — 37 distinct queries, inside the engine's
   64-entry result cache, and five population class sets, inside its
   8-entry class cache. *)
let warm_pool rng ~(p : Batch.params) =
  let hot =
    List.map (Filename.concat p.models)
      [ "healthcare.mdp"; "research_study.mdp"; "smart_home.mdp"; "rides.mdp" ]
    @ [ "synthetic:8-10-6" ]
  in
  let size = if p.smoke then 1_000 else 10_000 in
  List.concat_map
    (fun model ->
      let ((d, _) as m) = load_model model in
      let synthetic = String.starts_with ~prefix:"synthetic:" model in
      let profiles = random_profiles rng d in
      let edits = random_edits rng m (List.hd profiles) in
      let req cmd fields = json_line ((("cmd", Json.Str cmd) :: ("model", Json.Str model) :: fields)) in
      [ req "lts" [] ]
      @ (if synthetic then [] else List.map (fun pr -> req "risk" (profile_fields pr)) profiles)
      @ [
          req "population"
            [ ("size", Json.int size); ("pop_seed", Json.int 1); ("agree_probability", Json.Num 0.5) ];
        ]
      @ List.map
          (fun e ->
            req "whatif"
              (profile_fields (List.hd profiles)
              @ [ ("edits", Json.List [ Json.Str e ]); ("diff", Json.Bool true) ]))
          edits)
    hot

(* ----- response lines ----- *)

let id_of_line l = Scanf.sscanf l "{\"id\":%S" Fun.id

let status_of_line l = Scanf.sscanf l "{\"id\":%S,\"status\":%S" (fun _ s -> s)

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

let body_digest l =
  let i = find_sub l ",\"body\":" + 8 in
  Digest.to_hex (Digest.substring l i (String.length l - i - 1))

(* ----- set-up ----- *)

let setup (p : Batch.params) ~seconds =
  let rng = Prng.create ~seed:p.seed in
  let engine = S.Engine.create () in
  let warm = warm_pool rng ~p in
  (* Separate streams for what is asked and when: the i-th request is the
     same whatever the run length. *)
  let picks = Prng.split rng in
  let gaps = Prng.split rng in
  let closed_picks = Prng.split rng in
  let cold_pool = Array.init 4096 (fun _ -> Prng.range rng 1 1_000_000) in
  let cold_text =
    let diagram, policy = load_model "synthetic:7-9-6" in
    Mdp_dsl.Printer.to_string { diagram; policy; placement = None }
  in
  let cold_body k =
    json_line
      (("cmd", Json.Str "risk")
      :: ("model_text", Json.Str (Printf.sprintf "%s\n# tenant %d\n" cold_text k))
      :: profile_fields ([ "Service0" ], []))
  in
  let request rng ~cold ~step ~seg ~due_s =
    let body =
      if cold then cold_body cold_pool.(Prng.int rng (Array.length cold_pool))
      else Prng.choose rng warm
    in
    { body; cold; step; seg; due_s }
  in
  (* Exactly one request in every 1/[cold_share] is cold, in the open
     and the closed loop alike, so latency and capacity do not move with
     how many cold requests a seed happens to draw. *)
  let every = int_of_float (Float.round (1. /. cold_share)) in
  let one_in_every () =
    let n = ref 0 in
    fun () ->
      incr n;
      !n mod every = 0
  in
  let open_cold = one_in_every () and closed_cold = one_in_every () in
  let rates = step_rates (if p.smoke then smoke_rate else rate) in
  let open_segs =
    Array.concat
      (List.init (Array.length rates) (fun step ->
           Array.map (fun d -> (step, d)) (segments step_shares.(step) seconds)))
  in
  let schedule =
    List.concat
      (List.init (Array.length open_segs) (fun seg ->
           let step, dur = open_segs.(seg) in
           let rec go t acc =
             let t = t -. (log (1. -. Prng.float gaps 1.) /. rates.(step)) in
             if t >= dur then List.rev acc
             else go t (request picks ~cold:(open_cold ()) ~step ~seg ~due_s:t :: acc)
           in
           go 0. []))
    |> Array.of_list
  in
  let next_closed () = request closed_picks ~cold:(closed_cold ()) ~step:3 ~seg:(-1) ~due_s:0. in
  (* One pass over the hot set fills the caches, as a running daemon's
     would be, and answers every warm request and one cold request (a
     tenant outside the pool) sequentially: the reference every served
     answer is checked against. *)
  let answer body =
    let r = S.Engine.handle engine (Result.get_ok (S.Protocol.parse_request body)) in
    let l = S.Protocol.response_to_line r in
    if r.status <> S.Protocol.Ok_ then failwith ("set-up request failed: " ^ body ^ " -> " ^ l);
    body_digest l
  in
  let reference = Hashtbl.create 64 in
  List.iter (fun body -> Hashtbl.replace reference body (answer body)) warm;
  let cold_reference = answer (cold_body 0) in
  let answer_digest =
    Util.hex
      (String.concat "\n"
         (List.map (fun b -> b ^ Hashtbl.find reference b) warm @ [ cold_reference ]))
  in
  {
    engine;
    schedule;
    open_segs;
    closed_segs = segments closed_share seconds;
    next_closed;
    reference;
    cold_reference;
    answer_digest;
  }

let expected (s : setup) (r : request) =
  if r.cold then s.cold_reference else Hashtbl.find s.reference r.body

(* ----- the run ----- *)

type outcome = {
  latency_ms : float array;  (** open loop, as measured; infinity for a non-ok response *)
  status : string array;
  digest : string array;  (** per request, of the response body *)
  depth : int array;  (** queue depth seen at send *)
  late_ms : float array;  (** how late the generator sent it *)
  factor : float;  (** [Host.factor_of] the samples between segments *)
  closed : (request * string * string) list;  (** closed loop: request, status, digest *)
  closed_ok : int;  (** closed-loop ok answers, each before its segment's end *)
  health : Json.t;  (** engine cache counters after the run *)
}

(* Sleep to just short of the due time, then spin: a sleep overshoots by
   tens of microseconds, which would otherwise dominate the latency of a
   request answered from cache. *)
let sleep_until ns =
  let d = ns - Util.now_ns () in
  if d > 200_000 then Unix.sleepf (float_of_int (d - 150_000) /. 1e9);
  while Util.now_ns () < ns do
    Domain.cpu_relax ()
  done

let run (s : setup) =
  let n = Array.length s.schedule in
  let done_ns = Array.make n 0 and status = Array.make n "" and digest = Array.make n "" in
  let closed_answers = Hashtbl.create 1024 in
  let m = Mutex.create () and changed = Condition.create () in
  let answered = ref 0 and submitted = ref 0 in
  (* Called under the server's output lock, one response at a time.
     Open-loop ids are r<i>, closed-loop ones c<i>. *)
  let respond l =
    let t = Util.now_ns () in
    let id = id_of_line l in
    let i = int_of_string (String.sub id 1 (String.length id - 1)) in
    let st = status_of_line l and d = body_digest l in
    Mutex.lock m;
    if id.[0] = 'r' then begin
      done_ns.(i) <- t;
      status.(i) <- st;
      digest.(i) <- d
    end
    else Hashtbl.replace closed_answers i (st, d, t);
    incr answered;
    Condition.broadcast changed;
    Mutex.unlock m
  in
  let await ready =
    Mutex.lock m;
    while not (ready ()) do
      Condition.wait changed m
    done;
    Mutex.unlock m
  in
  let server = S.Server.create ~workers:2 ~queue_cap:32 ~respond s.engine in
  let submit id r =
    S.Server.submit server (line id r);
    incr submitted
  in
  (* The host's speed is sampled between segments, with the server
     drained. *)
  let samples = ref [ Host.sample () ] in
  let resample () = samples := Host.sample () :: !samples in
  let drained () = !answered >= !submitted in
  let due_ns = Array.make n 0 and depth = Array.make n 0 and late_ms = Array.make n 0. in
  let i = ref 0 in
  for seg = 0 to Array.length s.open_segs - 1 do
    let start = Util.now_ns () in
    while !i < n && s.schedule.(!i).seg = seg do
      let r = s.schedule.(!i) in
      let due = start + int_of_float (r.due_s *. 1e9) in
      sleep_until due;
      due_ns.(!i) <- due;
      late_ms.(!i) <- Util.ms_of_ns (Util.now_ns () - due);
      depth.(!i) <- S.Server.queue_depth server;
      submit ("r" ^ string_of_int !i) r;
      incr i
    done;
    sleep_until (start + int_of_float (snd s.open_segs.(seg) *. 1e9));
    await drained;
    resample ()
  done;
  let closed_ok = ref 0 and sent = ref [] and k = ref 0 in
  for c = 0 to Array.length s.closed_segs - 1 do
    let first = !k in
    let stop = Util.now_ns () + int_of_float (s.closed_segs.(c) *. 1e9) in
    while Util.now_ns () < stop do
      await (fun () -> !submitted - !answered < outstanding);
      let r = s.next_closed () in
      submit ("c" ^ string_of_int !k) r;
      sent := r :: !sent;
      incr k
    done;
    await drained;
    for j = first to !k - 1 do
      match Hashtbl.find closed_answers j with
      | "ok", _, t when t <= stop -> incr closed_ok
      | _ -> ()
    done;
    resample ()
  done;
  S.Server.shutdown server;
  let closed =
    List.mapi
      (fun k r ->
        let st, d, _ = Hashtbl.find closed_answers k in
        (r, st, d))
      (List.rev !sent)
  in
  let latency_ms =
    Array.init n (fun i ->
        if status.(i) = "ok" then Util.ms_of_ns (done_ns.(i) - due_ns.(i)) else infinity)
  in
  {
    latency_ms;
    status;
    digest;
    depth;
    late_ms;
    factor = Host.factor_of !samples;
    closed;
    closed_ok = !closed_ok;
    health = S.Engine.health_json s.engine;
  }

(* ----- metrics ----- *)

let in_step (s : setup) step f =
  List.filter_map
    (fun i -> if s.schedule.(i).step = step then Some (f i) else None)
    (List.init (Array.length s.schedule) Fun.id)

type verdict = {
  attempted : int;
  failed : int;
  cold_p50_ms : float;  (** median of the cold requests at step R, normalised *)
  tail_ms : float;  (** of all requests at step R, normalised *)
  throughput : float;  (** ok answers per normalised second in the closed loop *)
  errors : string list;
  steps : (string * float) list;  (** rate, median, tail per step *)
}

let step_s (s : setup) step =
  Array.fold_left (fun acc (st, d) -> if st = step then acc +. d else acc) 0. s.open_segs

(* Failed: a response at a step up to R that is not ok within [limit]
   (at 2R the server may shed), a closed-loop response that is not ok,
   and any ok response whose body differs from the sequential
   reference. The limit applies to latency as measured; the reported
   latencies are normalised with the run's factor. *)
let judge (s : setup) (o : outcome) ~limit =
  let idx = List.init (Array.length s.schedule) Fun.id in
  let late =
    List.filter (fun i -> s.schedule.(i).step <= 1 && not (o.latency_ms.(i) <= limit)) idx
  in
  let wrong =
    List.filter (fun i -> o.status.(i) = "ok" && o.digest.(i) <> expected s s.schedule.(i)) idx
  in
  let closed_bad = List.filter (fun (r, st, d) -> st <> "ok" || d <> expected s r) o.closed in
  let norm i = o.latency_ms.(i) *. o.factor in
  let cold_at_r f = List.filter_map Fun.id (in_step s 1 (fun i -> if s.schedule.(i).cold then Some (f i) else None)) in
  let steps =
    List.concat
      (List.init (Array.length step_shares) (fun step ->
           let lat = in_step s step norm in
           let k = Printf.sprintf "serve.step%d." step in
           [
             (k ^ "rate_per_s", float_of_int (List.length lat) /. step_s s step);
             (k ^ "p50_ms", Util.median lat);
             (k ^ "tail_ms", Util.tail lat);
             ( k ^ "within_limit_n",
               float_of_int (List.length (List.filter Fun.id (in_step s step (fun i -> o.latency_ms.(i) <= limit)))) );
           ]))
    @ [
        ("serve.closed.requests_n", float_of_int (List.length o.closed));
        ("wall.answer_ms", Util.median (cold_at_r (fun i -> o.latency_ms.(i))));
        ("host.factor", o.factor);
      ]
  in
  let closed_norm_s = Array.fold_left ( +. ) 0. s.closed_segs *. o.factor in
  {
    attempted = List.length idx + List.length o.closed;
    failed = List.length late + List.length wrong + List.length closed_bad;
    cold_p50_ms = Util.median (cold_at_r norm);
    tail_ms = Util.tail (in_step s 1 norm);
    throughput = float_of_int o.closed_ok /. closed_norm_s;
    steps;
    errors =
      (if late <> [] then
         [ Printf.sprintf "%d responses at steps <= R not ok within %.0f ms" (List.length late) limit ]
       else [])
      @ List.map (fun i -> "wrong body for request r" ^ string_of_int i) wrong
      @ List.map
          (fun (_, st, _) -> "closed-loop response " ^ st ^ " or with a wrong body")
          closed_bad;
  }

let cache_stat health cache key =
  Option.bind (Json.member cache health) (Util.num_member key)
  |> Option.value ~default:0.

(* Per-layer numbers of a traced run, plus a closed-loop replay of its
   step-R requests through [Engine.handle] on a fresh, equally warm
   engine: per-request engine time, and a check that serving them
   concurrently gave the bodies a sequential engine gives. *)
let layers (s : setup) (o : outcome) ~(before : Json.t) ~replay_engine =
  let step_r = in_step s 1 Fun.id in
  let replay =
    List.map
      (fun i ->
        let req = Result.get_ok (S.Protocol.parse_request (line ("r" ^ string_of_int i) s.schedule.(i))) in
        let t0 = Util.now_ns () in
        let resp = S.Engine.handle replay_engine req in
        let ms = Util.ms_of_ns (Util.now_ns () - t0) in
        (i, ms, body_digest (S.Protocol.response_to_line resp)))
      step_r
  in
  let mismatched =
    List.filter (fun (i, _, d) -> o.status.(i) = "ok" && d <> o.digest.(i)) replay
  in
  let engine_ms cold =
    Util.median
      (List.filter_map (fun (i, ms, _) -> if s.schedule.(i).cold = cold then Some ms else None) replay)
  in
  let waits =
    List.filter_map
      (fun (i, ms, _) ->
        if o.status.(i) = "ok" then Some (Float.max 0. (o.latency_ms.(i) -. ms)) else None)
      replay
  in
  let delta cache key = cache_stat o.health cache key -. cache_stat before cache key in
  let hits = delta "results" "hits" and misses = delta "results" "misses" in
  let statuses =
    let all = Array.to_list o.status @ List.map (fun (_, st, _) -> st) o.closed in
    List.map
      (fun st -> ("server.status." ^ st ^ "_n", float_of_int (List.length (List.filter (( = ) st) all))))
      [ "ok"; "error"; "cancelled"; "overloaded"; "breaker_open"; "state_limit"; "shutting_down" ]
  in
  ( [
      ("engine.result_hit_ratio", hits /. Float.max 1. (hits +. misses));
      ("engine.artifact_misses", delta "artifacts" "misses");
      ("engine.warm_ms_p50", engine_ms false);
      ("engine.cold_ms_p50", engine_ms true);
      ("server.queue_depth_p99", Util.percentile 99. (List.map (fun i -> float_of_int o.depth.(i)) step_r));
      ("server.wait_ms_p50", Util.median waits);
      ( "server.busy_frac",
        List.fold_left (fun acc (_, ms, _) -> acc +. ms) 0. replay
        /. (2e3 *. step_s s 1) );
      ("serve.gen_late_ms_p99", Util.percentile 99. (List.map (fun i -> o.late_ms.(i)) step_r));
      ("lts.states", Util.counter "lts/states");
      ("lts.dedup_hit_ratio", Util.dedup_hit_ratio ());
    ]
    @ statuses,
    List.map (fun (i, _, _) -> "replayed body differs for request r" ^ string_of_int i) mismatched )
