(* Tests for the resilient serve daemon: wire protocol, LRU cache,
   circuit breaker, cooperative cancellation through the exploration
   and population engines (including DLS hygiene across cancelled
   runs), engine-level caching byte-identity, admission control, and a
   soak smoke run. *)

module Core = Mdp_core
module S = Mdp_serve
module Json = Mdp_prelude.Json
module Cancel = Mdp_obs.Cancel
module Synthetic = Mdp_scenario.Synthetic

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let spec_exn name =
  match Synthetic.spec_of_string name with
  | Some (Ok spec) -> spec
  | _ -> Alcotest.fail ("bad synthetic spec: " ^ name)

let universe_of name =
  let diagram, policy = Synthetic.model (spec_exn name) in
  Core.Universe.make diagram policy

(* A model whose full exploration takes far longer than the deadline
   budgets used below, so cancellation always lands mid-run. *)
let big_model = "synthetic:9-11-6"
let small_model = "synthetic:4-6-3"

(* ------------------------------------------------------------------ *)
(* Synthetic spec parsing (shared CLI/daemon model naming) *)

let test_spec_of_string () =
  let s = spec_exn "synthetic:5-8-4" in
  check int_ "actors" 5 s.Synthetic.nactors;
  check int_ "fields" 8 s.Synthetic.nfields;
  check int_ "flows" 4 s.Synthetic.flows_per_service;
  check int_ "default seed" 42 s.Synthetic.seed;
  check int_ "seeded" 9 (spec_exn "synthetic:5-8-4@9").Synthetic.seed;
  check int_ "dash form" 3 (spec_exn "synthetic-3-4-2").Synthetic.nactors;
  check bool_ "file names pass through" true
    (Synthetic.spec_of_string "models/healthcare.mdp" = None);
  match Synthetic.spec_of_string "synthetic:5-8" with
  | Some (Error msg) ->
    check bool_ "error names the expected shape" true (contains msg "NACTORS")
  | _ -> Alcotest.fail "malformed spec must be Some (Error _)"

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_parse_request () =
  let line =
    {|{"id":"r1","cmd":"risk","model":"synthetic:4-6-3","agree":["Service0"],|}
    ^ {|"sensitivity":{"Field0":0.9},"deadline_ms":250,"max_states":5000,|}
    ^ {|"allow_stale":true}|}
  in
  match S.Protocol.parse_request line with
  | Ok { req_id = Some "r1"; cmd = S.Protocol.Analyse a } ->
    (match a.kind with
    | S.Protocol.Risk p ->
      check bool_ "agree" true (p.agreed = [ "Service0" ]);
      check bool_ "sensitivity" true (p.sensitivities = [ ("Field0", 0.9) ])
    | _ -> Alcotest.fail "expected risk kind");
    check bool_ "deadline" true (a.deadline_ms = Some 250);
    check bool_ "max states" true (a.max_states = Some 5000);
    check bool_ "allow stale" true a.allow_stale
  | _ -> Alcotest.fail "request did not parse"

let test_parse_errors_keep_id () =
  (match S.Protocol.parse_request {|{"id":"x7","cmd":"frobnicate"}|} with
  | Error (Some "x7", msg) ->
    check bool_ "mentions the cmd" true (contains msg "frobnicate")
  | _ -> Alcotest.fail "unknown cmd must keep the id");
  (match S.Protocol.parse_request {|{"id":12,"cmd":"risk"}|} with
  | Error (Some "12", _) -> ()
  | _ -> Alcotest.fail "numeric id must be recovered");
  (match S.Protocol.parse_request "[1,2]" with
  | Error (None, _) -> ()
  | _ -> Alcotest.fail "non-object must fail without id");
  match S.Protocol.parse_request "{nope" with
  | Error (None, _) -> ()
  | _ -> Alcotest.fail "broken JSON must fail"

let test_parse_whatif () =
  let line =
    {|{"id":"w1","cmd":"whatif","model":"synthetic:4-6-3","agree":["Service0"],|}
    ^ {|"sensitivity":{"Field0":0.4},"edits":["revoke:Actor0:delete:Store0"],|}
    ^ {|"diff":true}|}
  in
  (match S.Protocol.parse_request line with
  | Ok { req_id = Some "w1"; cmd = S.Protocol.Analyse a } -> (
    match a.kind with
    | S.Protocol.Whatif w ->
      check bool_ "edits" true (w.wedits = [ "revoke:Actor0:delete:Store0" ]);
      check bool_ "diff" true w.wdiff;
      check bool_ "profile agree" true (w.wprofile.agreed = [ "Service0" ]);
      check bool_ "no size, no wpop" true (w.wpop = None)
    | _ -> Alcotest.fail "expected whatif kind")
  | _ -> Alcotest.fail "whatif request did not parse");
  (let line =
     {|{"id":"w3","cmd":"whatif","model":"synthetic:4-6-3",|}
     ^ {|"edits":["sensitivity:Field0=0.9"],"size":500,"pop_seed":9}|}
   in
   match S.Protocol.parse_request line with
   | Ok { cmd = S.Protocol.Analyse { kind = S.Protocol.Whatif w; _ }; _ } ->
     check bool_ "size opts into wpop" true
       (w.wpop
       = Some { S.Protocol.psize = 500; pseed = 9; pagree = 0.5 })
   | _ -> Alcotest.fail "whatif+size request did not parse");
  (match
     S.Protocol.parse_request
       ({|{"id":"w4","cmd":"whatif","model":"synthetic:4-6-3",|}
       ^ {|"edits":["sensitivity:Field0=0.9"],"size":0}|})
   with
  | Error (Some "w4", msg) ->
    check bool_ "bad size rejected" true (contains msg "size")
  | _ -> Alcotest.fail "non-positive size must be rejected");
  match
    S.Protocol.parse_request
      {|{"id":"w2","cmd":"whatif","model":"synthetic:4-6-3","edits":[]}|}
  with
  | Error (Some "w2", msg) ->
    check bool_ "empty edits rejected" true (contains msg "edits")
  | _ -> Alcotest.fail "empty edits must be rejected"

(* Untrusted request lines never raise: valid lines of every command,
   mutated by bit flips, arbitrary byte writes, truncation and swaps of
   two fields' values (type confusion: a number where a list belongs),
   either parse or are refused with an [Error]. *)
let test_parse_request_never_raises =
  let open QCheck in
  let seeds =
    [
      {|{"id":"r1","cmd":"risk","model":"synthetic:4-6-3","agree":["Service0"],"sensitivity":{"Field0":0.9},"deadline_ms":250,"max_states":5000,"allow_stale":true}|};
      {|{"id":"w1","cmd":"whatif","model":"synthetic:4-6-3","agree":["Service0"],"sensitivity":{"Field0":0.4},"edits":["revoke:Actor0:delete:Store0"],"diff":true,"size":500,"pop_seed":9}|};
      {|{"id":"p1","cmd":"population","model":"models/healthcare.mdp","size":2000,"pop_seed":5,"agree_probability":0.3,"deadline_ms":50}|};
      {|{"id":7,"cmd":"lts","model_text":"actor A\nstore S","max_states":100}|};
      {|{"id":"c1","cmd":"cancel","target":"r1"}|};
      {|{"id":"h1","cmd":"health"}|};
      {|{"cmd":"ping"}|};
    ]
  in
  let swap_fields s i j =
    match Json.of_string s with
    | Ok (Json.Obj fields) when fields <> [] ->
      let a = Array.of_list fields in
      let i = i mod Array.length a and j = j mod Array.length a in
      let (ki, vi), (kj, vj) = (a.(i), a.(j)) in
      a.(i) <- (ki, vj);
      a.(j) <- (kj, vi);
      Json.to_string ~indent:false (Json.Obj (Array.to_list a))
    | _ -> s
  in
  let mutate line ops =
    List.fold_left
      (fun s (kind, pos, x) ->
        let n = String.length s in
        let p = if n = 0 then 0 else pos mod n in
        let set c =
          String.sub s 0 p ^ String.make 1 c ^ String.sub s (p + 1) (n - p - 1)
        in
        match kind mod 4 with
        | 0 when n > 0 -> set (Char.chr (Char.code s.[p] lxor (1 lsl (x mod 8))))
        | 1 when n > 0 -> set (Char.chr (x mod 256))
        | 2 -> String.sub s 0 p
        | 3 -> swap_fields s pos x
        | _ -> s)
      line ops
  in
  let gen =
    Gen.(map2 mutate (oneofl seeds) (list_size (1 -- 4) (triple nat nat nat)))
  in
  QCheck.Test.make ~count:3000 ~name:"mutated request lines never raise"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun line ->
      List.for_all
        (fun seed -> Result.is_ok (S.Protocol.parse_request seed))
        seeds
      &&
      match S.Protocol.parse_request line with
      | Ok _ | Error _ -> true
      | exception exn ->
        QCheck.Test.fail_reportf "parse %S raised %s" line
          (Printexc.to_string exn))

let test_response_roundtrip () =
  let r =
    S.Protocol.response ~id:(Some "q1") ~cached:true ~elapsed_ms:12.5
      ~body:(Json.Obj [ ("x", Json.int 3) ])
      (S.Protocol.Cancelled `Deadline)
  in
  let line = S.Protocol.response_to_line r in
  check bool_ "single line" true (not (String.contains line '\n'));
  match S.Protocol.response_of_line line with
  | Ok r' ->
    check bool_ "id" true (r'.resp_id = Some "q1");
    check bool_ "deadline reason survives" true
      (r'.status = S.Protocol.Cancelled `Deadline);
    check bool_ "cached" true r'.cached;
    check bool_ "body" true (r'.body = Json.Obj [ ("x", Json.Num 3.0) ])
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* LRU cache *)

let test_cache_lru_eviction () =
  let c = S.Cache.create ~name:"t/lru" ~cap:2 ~stale_cap:2 () in
  S.Cache.put c "a" 1;
  S.Cache.put c "b" 2;
  check bool_ "a hit refreshes recency" true (S.Cache.find c "a" = Some 1);
  S.Cache.put c "c" 3;
  check bool_ "b was the LRU victim" true (S.Cache.find c "b" = None);
  check bool_ "a survived" true (S.Cache.find c "a" = Some 1);
  check bool_ "c present" true (S.Cache.find c "c" = Some 3);
  check bool_ "evicted b still served stale" true
    (S.Cache.find_stale c "b" = Some 2);
  let s = S.Cache.stats c in
  check int_ "len" 2 s.S.Cache.len;
  check int_ "evictions" 1 s.S.Cache.evictions;
  check int_ "stale len" 1 s.S.Cache.stale_len;
  (* Second-chance answers are accounted separately from plain hits:
     the "b" stale serve above must not inflate the hit count. *)
  check int_ "stale hit counted" 1 s.S.Cache.stale_hits;
  let hits_before = s.S.Cache.hits in
  check bool_ "live find_stale answers" true (S.Cache.find_stale c "a" = Some 1);
  let s' = S.Cache.stats c in
  check int_ "live find_stale is a plain hit" (hits_before + 1) s'.S.Cache.hits;
  check int_ "no extra stale hit" 1 s'.S.Cache.stale_hits;
  check bool_ "unknown key is a miss" true (S.Cache.find_stale c "zz" = None)

let test_cache_bounded_under_churn () =
  let c = S.Cache.create ~name:"t/churn" ~cap:4 ~stale_cap:3 () in
  for i = 0 to 499 do
    S.Cache.put c (string_of_int (i mod 37)) i;
    (* Read-heavy phases must not grow internal bookkeeping without
       bound either; [stats] reflects the live table only. *)
    ignore (S.Cache.find c (string_of_int (i mod 11)))
  done;
  let s = S.Cache.stats c in
  check bool_ "len bounded" true (s.S.Cache.len <= 4);
  check bool_ "stale bounded" true (s.S.Cache.stale_len <= 3);
  check bool_ "evictions happened" true (s.S.Cache.evictions > 0);
  (* Updating an existing key must not evict. *)
  let c2 = S.Cache.create ~name:"t/upd" ~cap:2 () in
  S.Cache.put c2 "k" 1;
  S.Cache.put c2 "k" 2;
  check bool_ "update in place" true (S.Cache.find c2 "k" = Some 2);
  check int_ "no eviction on update" 0 (S.Cache.stats c2).S.Cache.evictions

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let test_breaker_trips_and_recovers () =
  let b = S.Breaker.create ~threshold:2 ~cooldown_ms:40 () in
  check bool_ "starts closed" true (S.Breaker.admit b "m" = S.Breaker.Proceed);
  S.Breaker.failure b "m";
  check bool_ "one failure stays closed" true
    (S.Breaker.admit b "m" = S.Breaker.Proceed);
  S.Breaker.failure b "m";
  (match S.Breaker.admit b "m" with
  | S.Breaker.Fast_fail _ -> ()
  | S.Breaker.Proceed -> Alcotest.fail "threshold failures must open");
  check int_ "one trip" 1 (S.Breaker.trips b);
  check int_ "counted open" 1 (S.Breaker.open_count b);
  check bool_ "other keys unaffected" true
    (S.Breaker.admit b "other" = S.Breaker.Proceed);
  Unix.sleepf 0.06;
  (* Cooldown over: exactly one probe is admitted. *)
  check bool_ "probe admitted" true (S.Breaker.admit b "m" = S.Breaker.Proceed);
  (match S.Breaker.admit b "m" with
  | S.Breaker.Fast_fail _ -> ()
  | S.Breaker.Proceed -> Alcotest.fail "second concurrent probe must fast-fail");
  S.Breaker.success b "m";
  check bool_ "probe success closes" true
    (S.Breaker.admit b "m" = S.Breaker.Proceed);
  check int_ "nothing open" 0 (S.Breaker.open_count b)

let test_breaker_failed_probe_reopens () =
  let b = S.Breaker.create ~threshold:1 ~cooldown_ms:40 () in
  S.Breaker.failure b "m";
  (match S.Breaker.admit b "m" with
  | S.Breaker.Fast_fail _ -> ()
  | S.Breaker.Proceed -> Alcotest.fail "threshold 1 must open immediately");
  Unix.sleepf 0.06;
  check bool_ "probe admitted" true (S.Breaker.admit b "m" = S.Breaker.Proceed);
  S.Breaker.failure b "m";
  match S.Breaker.admit b "m" with
  | S.Breaker.Fast_fail _ -> check int_ "re-trip counted" 2 (S.Breaker.trips b)
  | S.Breaker.Proceed -> Alcotest.fail "failed probe must reopen"

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation through the exploration engine *)


(* A cancelled run must leave no residue: the same universe explored
   again (un-cancelled) must match a run on a fresh universe byte for
   byte — this is what guards the Domain.DLS read-memo hygiene. *)
let test_cancel_pre_fired_token () =
  let cancel = Cancel.create () in
  Cancel.cancel cancel;
  let u = universe_of small_model in
  (match Core.Generate.run ~cancel u with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Cancel.Cancelled _ -> ());
  let again = Core.Generate.run u in
  let fresh = Core.Generate.run (universe_of small_model) in
  check string_ "post-cancel run byte-identical to fresh"
    (Core.Lts_render.to_dot fresh)
    (Core.Lts_render.to_dot again)

let test_cancel_mid_run_deadline () =
  let u = universe_of big_model in
  let options = { Core.Generate.default_options with max_states = 1_000_000 } in
  let cancel = Cancel.with_budget_ms 5 in
  let t0 = Mdp_obs.Clock.now_ns () in
  (match Core.Generate.run ~options ~cancel u with
  | _ -> Alcotest.fail "expected mid-run deadline cancellation"
  | exception Cancel.Cancelled Cancel.Deadline -> ());
  let elapsed_ms = float_of_int (Mdp_obs.Clock.now_ns () - t0) /. 1.e6 in
  check bool_
    (Printf.sprintf "stopped within budget + slack (%.0fms)" elapsed_ms)
    true (elapsed_ms < 2000.0);
  (* The universe stays usable for further (bounded) runs. *)
  ignore (Core.Generate.run (universe_of small_model))

let test_population_cancel () =
  let u = universe_of small_model in
  let lts = Core.Generate.run u in
  let spec =
    {
      Core.Population.seed = 3;
      size = 400;
      westin_mix = Core.Population.default_mix;
      agree_probability = 0.5;
    }
  in
  let profiles = Core.Population.simulate spec (Core.Universe.diagram u) in
  let fired = Cancel.create () in
  Cancel.cancel fired;
  (match Core.Population.analyse_compiled ~cancel:fired u lts profiles with
  | _ -> Alcotest.fail "expected population cancellation"
  | exception Cancel.Cancelled _ -> ());
  (match Core.Population.prepare ~cancel:fired u lts profiles with
  | _ -> Alcotest.fail "expected population prepare cancellation"
  | exception Cancel.Cancelled _ -> ());
  (* The LTS and a fresh pass are unaffected by the aborted one. *)
  let a = Core.Population.analyse_compiled u lts profiles in
  let b = Core.Population.analyse u lts profiles in
  check bool_ "post-cancel aggregate matches naive" true (a = b)

let test_run_checked_failures () =
  let diagram, policy = Synthetic.model (spec_exn small_model) in
  (match
     Core.Analysis.run_checked
       ~options:{ Core.Generate.default_options with max_states = 5 }
       diagram policy
   with
  | Error (Core.Analysis.State_limit { limit; hint }) ->
    check int_ "limit carried" 5 limit;
    check bool_ "hint present" true (contains hint "max-states")
  | _ -> Alcotest.fail "expected structured state-limit failure");
  let fired = Cancel.create () in
  Cancel.cancel fired;
  match Core.Analysis.run_checked ~cancel:fired diagram policy with
  | Error (Core.Analysis.Cancelled { deadline = false; _ }) -> ()
  | _ -> Alcotest.fail "expected structured cancellation failure"

(* ------------------------------------------------------------------ *)
(* Engine *)

let analyse ?(model = small_model) ?max_states ?deadline_ms ?(allow_stale = false)
    ?(kind = S.Protocol.Lts_stats) id =
  {
    S.Protocol.req_id = Some id;
    cmd =
      S.Protocol.Analyse
        { kind; model = S.Protocol.Named model; max_states; deadline_ms; allow_stale };
  }

let risk_kind =
  S.Protocol.Risk
    { agreed = [ "Service0" ]; sensitivities = [ ("Field0", 0.9) ] }

let pop_kind = S.Protocol.Population { psize = 150; pseed = 3; pagree = 0.5 }

let body_string (r : S.Protocol.response) = Json.to_string r.body

(* A spill directory that cannot be created: [run_checked] returns the
   structured failure, nothing is left in the spill parent, and the
   daemon answers status [error] with the structured message. *)
let test_spill_io_failure () =
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdpriv-spill-io-test-%d" (Unix.getpid ()))
  in
  Unix.mkdir base 0o700;
  let not_a_dir = Filename.concat base "notadir" in
  close_out (open_out not_a_dir);
  let model = "synthetic:9-14-8" in
  let budget = 1 lsl 20 in
  let diagram, policy = Synthetic.model (spec_exn model) in
  let options =
    {
      Core.Generate.default_options with
      mem_budget = Some budget;
      spill_dir = Some not_a_dir;
    }
  in
  (match Core.Analysis.run_checked ~options diagram policy with
  | Error (Core.Analysis.Spill_io { message }) ->
    check bool_ "names the failing call" true (contains message "mkdir")
  | _ -> Alcotest.fail "expected structured spill failure");
  check
    Alcotest.(list string)
    "no spill directory left" [ "notadir" ]
    (Array.to_list (Sys.readdir base));
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name not_a_dir;
  let resp =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      (fun () ->
        let config = { S.Engine.default_config with mem_budget = Some budget } in
        S.Engine.handle (S.Engine.create ~config ()) (analyse ~model "s"))
  in
  check bool_ "serve status error" true (resp.status = S.Protocol.Error_);
  (match Json.member "message" resp.body with
  | Some (Json.Str m) ->
    check bool_ "serve carries the structured message" true
      (contains m "spill tier I/O error: mkdir")
  | _ -> Alcotest.fail "error body must carry a message");
  Sys.remove not_a_dir;
  Unix.rmdir base

let test_engine_warm_cache_byte_identical () =
  let e = S.Engine.create () in
  List.iter
    (fun kind ->
      let req = analyse ~kind "a" in
      let cold = S.Engine.handle e req in
      let warm = S.Engine.handle e req in
      check bool_ "cold ok" true (cold.status = S.Protocol.Ok_);
      check bool_ "cold not cached" false cold.cached;
      check bool_ "warm cached" true warm.cached;
      check string_ "warm body byte-identical" (body_string cold)
        (body_string warm))
    [ S.Protocol.Lts_stats; risk_kind; pop_kind ]

let test_engine_deadline_cancel () =
  let e = S.Engine.create () in
  let req = analyse ~model:big_model ~max_states:1_000_000 ~deadline_ms:5 "d" in
  (* The server derives the token from the request's budget; do the
     same here ([handle] itself only polls the token it is given). *)
  let budget =
    match req.S.Protocol.cmd with
    | S.Protocol.Analyse a -> S.Engine.deadline_ms_for e a
    | _ -> None
  in
  check bool_ "budget comes from the request" true (budget = Some 5);
  let resp =
    S.Engine.handle e ~cancel:(Cancel.with_budget_ms (Option.get budget)) req
  in
  check bool_ "deadline cancelled" true
    (resp.status = S.Protocol.Cancelled `Deadline);
  (* The engine remains fully usable afterwards. *)
  let ok = S.Engine.handle e (analyse "ok") in
  check bool_ "engine reusable" true (ok.status = S.Protocol.Ok_)

(* A population request spends its budget simulating and classing
   users, not exploring: on a warm healthcare artifact, two million
   users under a 50 ms deadline must come back cancelled within the
   soak's deadline slack. *)
let test_engine_population_deadline () =
  let dir = if Sys.file_exists "../models" then "../models" else "models" in
  let model = Filename.concat dir "healthcare.mdp" in
  let e = S.Engine.create () in
  check bool_ "artifact warm" true
    ((S.Engine.handle e (analyse ~model "warm")).status = S.Protocol.Ok_);
  let kind = S.Protocol.Population { psize = 2_000_000; pseed = 3; pagree = 0.5 } in
  let t0 = Unix.gettimeofday () in
  let resp =
    S.Engine.handle e ~cancel:(Cancel.with_budget_ms 50)
      (analyse ~model ~kind ~deadline_ms:50 "p")
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check bool_ "deadline cancelled" true
    (resp.status = S.Protocol.Cancelled `Deadline);
  let slack = S.Soak.default_spec.S.Soak.deadline_slack_ms in
  if elapsed_ms > 50. +. slack then
    Alcotest.failf "cancelled after %.0f ms (budget 50 ms + %.0f ms slack)"
      elapsed_ms slack

let test_engine_client_cancel_mid_flight () =
  let e = S.Engine.create () in
  let token = Cancel.create () in
  let req = analyse ~model:big_model ~max_states:1_000_000 "c" in
  let worker = Domain.spawn (fun () -> S.Engine.handle e ~cancel:token req) in
  Unix.sleepf 0.01;
  Cancel.cancel token;
  let resp = Domain.join worker in
  check bool_ "client cancelled" true
    (resp.status = S.Protocol.Cancelled `Client)

let test_engine_state_limit_and_breaker () =
  let config =
    { S.Engine.default_config with breaker_threshold = 2; breaker_cooldown_ms = 10_000 }
  in
  let e = S.Engine.create ~config () in
  let req id = analyse ~model:big_model ~max_states:300 id in
  let r1 = S.Engine.handle e (req "x1") in
  check bool_ "structured state limit" true (r1.status = S.Protocol.State_limit);
  (match Json.member "limit" r1.body with
  | Some l -> check bool_ "limit in body" true (Json.to_int_opt l = Some 300)
  | None -> Alcotest.fail "state_limit body must carry the limit");
  (match Json.member "hint" r1.body with
  | Some (Json.Str h) -> check bool_ "hint in body" true (contains h "max-states")
  | _ -> Alcotest.fail "state_limit body must carry a hint");
  let r2 = S.Engine.handle e (req "x2") in
  check bool_ "second trip still structured" true
    (r2.status = S.Protocol.State_limit);
  let r3 = S.Engine.handle e (req "x3") in
  check bool_ "breaker now fast-fails" true (r3.status = S.Protocol.Breaker_open);
  (* Other models keep working while one breaker is open. *)
  let ok = S.Engine.handle e (analyse "ok") in
  check bool_ "other models unaffected" true (ok.status = S.Protocol.Ok_)

let test_engine_stale_degradation () =
  let config =
    { S.Engine.default_config with result_cap = 1; stale_cap = 4 }
  in
  let e = S.Engine.create ~config () in
  let req_a = analyse ~allow_stale:true "a" in
  let cold = S.Engine.handle e req_a in
  check bool_ "cold ok" true (cold.status = S.Protocol.Ok_);
  (* Evict model A's result with a different model's. *)
  ignore (S.Engine.handle e (analyse ~model:"synthetic:3-5-2" "b"));
  match S.Engine.stale_response e req_a with
  | Some resp ->
    check bool_ "flagged stale" true resp.stale;
    check bool_ "flagged cached" true resp.cached;
    check string_ "stale body identical to original" (body_string cold)
      (body_string resp)
  | None -> Alcotest.fail "evicted result must be servable as stale"

let whatif_kind ?(diff = false) ?pop edits =
  S.Protocol.Whatif
    {
      wprofile = { agreed = [ "Service0" ]; sensitivities = [ ("Field0", 0.4) ] };
      wedits = edits;
      wdiff = diff;
      wpop = pop;
    }

(* A what-if request whose edit changes the transition structure
   re-explores the edited model: on a warm 135k-state artifact, a
   removed flow under a 50 ms deadline must come back cancelled within
   the soak's deadline slack rather than finish the exploration. *)
let test_engine_whatif_deadline () =
  let model = "synthetic:9-14-8" in
  let e = S.Engine.create () in
  check bool_ "artifact warm" true
    ((S.Engine.handle e (analyse ~model "warm")).status = S.Protocol.Ok_);
  let t0 = Unix.gettimeofday () in
  let resp =
    S.Engine.handle e ~cancel:(Cancel.with_budget_ms 50)
      (analyse ~model ~kind:(whatif_kind [ "flow-:Service0:1" ])
         ~deadline_ms:50 "w")
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check bool_ "deadline cancelled" true
    (resp.status = S.Protocol.Cancelled `Deadline);
  let slack = S.Soak.default_spec.S.Soak.deadline_slack_ms in
  if elapsed_ms > 50. +. slack then
    Alcotest.failf "cancelled after %.0f ms (budget 50 ms + %.0f ms slack)"
      elapsed_ms slack

let test_engine_whatif () =
  let e = S.Engine.create () in
  (* Profile-only edit: the incremental path must reuse the cached
     artifact, and the resulting report must agree with a direct risk
     request under the edited profile. *)
  let resp =
    S.Engine.handle e
      (analyse ~kind:(whatif_kind ~diff:true [ "sensitivity:Field0=0.9" ]) "w1")
  in
  check bool_ "whatif ok" true (resp.status = S.Protocol.Ok_);
  check bool_ "profile edit is incremental" true
    (Json.member "incremental" resp.body = Some (Json.Bool true));
  check bool_ "diff present when requested" true
    (Json.member "diff" resp.body <> None);
  let risk_direct = S.Engine.handle e (analyse ~kind:risk_kind "w2") in
  let findings_after =
    Option.bind (Json.member "findings_after" resp.body) Json.to_int_opt
  in
  let direct_count =
    match Json.member "findings" risk_direct.body with
    | Some (Json.List l) -> Some (List.length l)
    | _ -> None
  in
  check bool_ "whatif agrees with a direct risk query" true
    (findings_after <> None && findings_after = direct_count);
  (* Warm repeat: served from the result cache. *)
  let warm =
    S.Engine.handle e
      (analyse ~kind:(whatif_kind ~diff:true [ "sensitivity:Field0=0.9" ]) "w3")
  in
  check bool_ "warm whatif cached" true warm.cached;
  check string_ "warm whatif byte-identical" (body_string resp)
    (body_string warm);
  (* A flow edit may change the reachable structure: full fallback. *)
  let full =
    S.Engine.handle e (analyse ~kind:(whatif_kind [ "flow-:Service0:1" ]) "w4")
  in
  check bool_ "flow edit ok" true (full.status = S.Protocol.Ok_);
  check bool_ "flow edit is a full rerun" true
    (Json.member "incremental" full.body = Some (Json.Bool false));
  (* Unparseable and inapplicable edits are structured errors. *)
  let bad =
    S.Engine.handle e (analyse ~kind:(whatif_kind [ "revoke:Actor0:fly:X" ]) "w5")
  in
  check bool_ "bad edit is an error" true (bad.status = S.Protocol.Error_)

(* Result-cache keys canonicalise the edit batch: a semantically equal
   permutation of independent edits hits the same entry, while a batch
   extended with a (semantically vacuous) extra edit keys separately —
   and must come back correct, not poisoned by the near-miss. *)
let test_engine_whatif_canonical_key () =
  let e = S.Engine.create () in
  let batch = [ "revoke:Actor0:delete:Store0"; "revoke:Actor1:delete:Store1" ] in
  let permuted = List.rev batch in
  let cold = S.Engine.handle e (analyse ~kind:(whatif_kind ~diff:true batch) "k1") in
  check bool_ "cold ok" true (cold.status = S.Protocol.Ok_);
  check bool_ "cold not cached" false cold.cached;
  let warm =
    S.Engine.handle e (analyse ~kind:(whatif_kind ~diff:true permuted) "k2")
  in
  check bool_ "permuted batch is a cache hit" true warm.cached;
  check string_ "permuted batch byte-identical" (body_string cold)
    (body_string warm);
  (* Researcher-style vacuous revocation: Actor3 holds nothing on
     Store0 beyond the store-level grants the synthetic model hands
     out, so revoking a Write it still makes the batch a distinct
     request. *)
  let extended = batch @ [ "revoke:Actor3:write:Store0" ] in
  let distinct =
    S.Engine.handle e (analyse ~kind:(whatif_kind ~diff:true extended) "k3")
  in
  check bool_ "extended batch ok" true (distinct.status = S.Protocol.Ok_);
  check bool_ "extended batch is a distinct key" false distinct.cached;
  (* The vacuous edit changes nothing about the outcome itself. *)
  let field name body = Json.to_string (Option.get (Json.member name body)) in
  List.iter
    (fun f ->
      check string_ ("extended batch agrees on " ^ f) (field f cold.body)
        (field f distinct.body))
    [ "findings_after"; "worst_before"; "worst_after"; "diff" ]

(* A what-if carrying a population size reports the aggregate before
   and after; a σ-only edit is answered by class-delta reaggregation
   with reuse accounting. *)
let test_engine_whatif_population () =
  let e = S.Engine.create () in
  let pop = { S.Protocol.psize = 200; pseed = 3; pagree = 0.5 } in
  let resp =
    S.Engine.handle e
      (analyse
         ~kind:(whatif_kind ~pop [ "sensitivity:Field0=0.5" ])
         "wp1")
  in
  check bool_ "whatif+population ok" true (resp.status = S.Protocol.Ok_);
  let popj =
    match Json.member "population" resp.body with
    | Some j -> j
    | None -> Alcotest.fail "population member missing"
  in
  let int_field name =
    match Option.bind (Json.member name popj) Json.to_int_opt with
    | Some n -> n
    | None -> Alcotest.fail ("population." ^ name ^ " missing")
  in
  check bool_ "before aggregate present" true
    (Json.member "before" popj <> None);
  check bool_ "after aggregate present" true (Json.member "after" popj <> None);
  let reused = int_field "classes_reused"
  and reeval = int_field "classes_reevaluated" in
  check bool_ "σ edit reuses classes" true (reused > 0);
  check bool_ "σ edit re-evaluates something" true (reeval > 0);
  (* An ACL edit goes through the full population recompute: no reuse
     is claimed, and the population member is still present. *)
  let acl =
    S.Engine.handle e
      (analyse ~kind:(whatif_kind ~pop [ "revoke:Actor0:delete:Store0" ]) "wp2")
  in
  check bool_ "acl whatif+population ok" true (acl.status = S.Protocol.Ok_);
  (match Json.member "population" acl.body with
  | Some j ->
    check bool_ "acl path claims no reuse" true
      (Option.bind (Json.member "classes_reused" j) Json.to_int_opt = Some 0)
  | None -> Alcotest.fail "population member missing on acl path");
  (* Without a size, no population is computed. *)
  let plain =
    S.Engine.handle e
      (analyse ~kind:(whatif_kind [ "sensitivity:Field0=0.9" ]) "wp3")
  in
  check bool_ "no size, no population" true
    (Json.member "population" plain.body = None)

(* A σ edit naming a field the model lacks is refused by [Edit.apply]
   as a structured error, with or without a population size: the sized
   path would otherwise reaggregate classes over an unknown field. *)
let test_engine_whatif_unknown_field () =
  let e = S.Engine.create () in
  List.iter
    (fun (id, size) ->
      let line =
        Printf.sprintf
          {|{"id":"%s","cmd":"whatif","model":"%s","edits":["sensitivity:Nope=0.5"]%s}|}
          id small_model size
      in
      match S.Protocol.parse_request line with
      | Error (_, msg) -> Alcotest.failf "%s did not parse: %s" id msg
      | Ok req ->
        let resp = S.Engine.handle e req in
        check bool_ (id ^ " is an error") true (resp.status = S.Protocol.Error_);
        check bool_ (id ^ " names the field") true
          (contains (body_string resp) "unknown field Nope"))
    [ ("u1", ""); ("u2", {|,"size":100|}) ]

let test_engine_malformed_model () =
  let e = S.Engine.create () in
  let bad = S.Engine.handle e (analyse ~model:"synthetic:nope" "m1") in
  check bool_ "bad spec is an error" true (bad.status = S.Protocol.Error_);
  let missing = S.Engine.handle e (analyse ~model:"/no/such/file.mdp" "m2") in
  check bool_ "missing file is an error" true (missing.status = S.Protocol.Error_);
  let inline_bad =
    S.Engine.handle e
      {
        S.Protocol.req_id = Some "m3";
        cmd =
          S.Protocol.Analyse
            {
              kind = S.Protocol.Lts_stats;
              model = S.Protocol.Inline "actor{{{";
              max_states = None;
              deadline_ms = None;
              allow_stale = false;
            };
      }
  in
  check bool_ "inline parse error is an error" true
    (inline_bad.status = S.Protocol.Error_)

(* Inline DSL whose flows the diagram builder rejects (a duplicate flow
   order) is a structured parse error naming the line, not an escaped
   [Invalid_argument] that the server reports as an internal error. *)
let test_engine_model_text_invalid_flow () =
  let e = S.Engine.create () in
  let text =
    "actor Doctor\nstore EHR { schema R { Name } }\n"
    ^ "service S {\n1: User -> Doctor [Name]\n1: Doctor -> EHR [Name]\n}"
  in
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Str "p1"); ("cmd", Json.Str "risk");
           ("model_text", Json.Str text) ])
  in
  match S.Protocol.parse_request line with
  | Error (_, msg) -> Alcotest.failf "request did not parse: %s" msg
  | Ok req ->
    let resp = S.Engine.handle e req in
    check bool_ "is an error" true (resp.status = S.Protocol.Error_);
    check bool_ "model parse error with a line" true
      (contains (body_string resp)
         "model parse error: line 5: duplicate flow order 1")

(* ------------------------------------------------------------------ *)
(* Server *)

let collecting_server ?(workers = 1) ?(queue_cap = 1) engine =
  let lines = ref [] in
  let mu = Mutex.create () in
  let respond l =
    Mutex.lock mu;
    lines := l :: !lines;
    Mutex.unlock mu
  in
  let server = S.Server.create ~workers ~queue_cap ~respond engine in
  (server, lines)

let statuses lines =
  List.filter_map
    (fun l ->
      match S.Protocol.response_of_line l with
      | Ok r -> Some (S.Protocol.status_string r.status)
      | Error _ -> None)
    lines

let test_server_overload_and_accounting () =
  let server, lines = collecting_server (S.Engine.create ()) in
  let req i =
    Printf.sprintf
      {|{"id":"o%d","cmd":"lts","model":"synthetic:8-10-5@11","deadline_ms":40,"max_states":1000000}|}
      i
  in
  for i = 1 to 6 do
    S.Server.submit server (req i)
  done;
  S.Server.submit server {|{"id":"p","cmd":"ping"}|};
  S.Server.submit server "garbage";
  S.Server.shutdown server;
  let got = statuses !lines in
  check int_ "every line answered" 8 (List.length got);
  check bool_ "well-formed responses only" true
    (List.length !lines = List.length got);
  check bool_ "overload shed happened" true (List.mem "overloaded" got);
  check bool_ "ping answered inline" true (List.mem "ok" got);
  check bool_ "garbage answered" true (List.mem "error" got)

let test_server_shutdown_then_refuse () =
  let server, lines = collecting_server (S.Engine.create ()) in
  S.Server.submit server {|{"id":"s1","cmd":"shutdown"}|};
  S.Server.submit server {|{"id":"s2","cmd":"lts","model":"synthetic:4-6-3"}|};
  S.Server.shutdown server;
  let got = statuses !lines in
  check bool_ "shutdown acknowledged" true (List.mem "ok" got);
  check bool_ "post-shutdown submit refused" true
    (List.mem "shutting_down" got)

let test_server_cancel_unknown () =
  let server, lines = collecting_server (S.Engine.create ()) in
  S.Server.submit server {|{"id":"c1","cmd":"cancel","target":"ghost"}|};
  S.Server.shutdown server;
  match List.filter_map (fun l -> Result.to_option (S.Protocol.response_of_line l)) !lines with
  | [ r ] ->
    check bool_ "ok status" true (r.status = S.Protocol.Ok_);
    check bool_ "found=false" true
      (Json.member "found" r.body = Some (Json.Bool false))
  | _ -> Alcotest.fail "expected exactly one response"

(* ------------------------------------------------------------------ *)
(* Soak smoke *)

let test_soak_smoke () =
  let outcome =
    S.Soak.run { S.Soak.default_spec with requests = 150; seed = 3 }
  in
  check bool_ "contract held" true outcome.S.Soak.ok;
  check int_ "every delivered line answered" outcome.S.Soak.delivered
    outcome.S.Soak.answered;
  check int_ "no ill-formed responses" 0 outcome.S.Soak.ill_formed;
  check bool_ "some requests succeeded" true
    (match List.assoc_opt "ok" outcome.S.Soak.by_status with
    | Some n -> n > 0
    | None -> false)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "synthetic spec parsing" `Quick test_spec_of_string;
          Alcotest.test_case "request parsing" `Quick test_parse_request;
          Alcotest.test_case "errors keep the id" `Quick
            test_parse_errors_keep_id;
          Alcotest.test_case "whatif request parsing" `Quick test_parse_whatif;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          QCheck_alcotest.to_alcotest test_parse_request_never_raises;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction + stale store" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "bounded under churn" `Quick
            test_cache_bounded_under_churn;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips, cools down, recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "failed probe reopens" `Quick
            test_breaker_failed_probe_reopens;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "pre-fired token, clean rerun" `Quick
            test_cancel_pre_fired_token;
          Alcotest.test_case "mid-run deadline" `Quick
            test_cancel_mid_run_deadline;
          Alcotest.test_case "population sweep cancels" `Quick
            test_population_cancel;
          Alcotest.test_case "run_checked structured failures" `Quick
            test_run_checked_failures;
          Alcotest.test_case "spill I/O failure structured" `Quick
            test_spill_io_failure;
        ] );
      ( "engine",
        [
          Alcotest.test_case "warm cache byte-identical" `Quick
            test_engine_warm_cache_byte_identical;
          Alcotest.test_case "deadline cancellation" `Quick
            test_engine_deadline_cancel;
          Alcotest.test_case "population deadline" `Quick
            test_engine_population_deadline;
          Alcotest.test_case "whatif deadline" `Quick
            test_engine_whatif_deadline;
          Alcotest.test_case "client cancel mid-flight" `Quick
            test_engine_client_cancel_mid_flight;
          Alcotest.test_case "state limit trips breaker" `Quick
            test_engine_state_limit_and_breaker;
          Alcotest.test_case "stale degradation" `Quick
            test_engine_stale_degradation;
          Alcotest.test_case "whatif incremental + fallback" `Quick
            test_engine_whatif;
          Alcotest.test_case "whatif canonical cache keys" `Quick
            test_engine_whatif_canonical_key;
          Alcotest.test_case "whatif population deltas" `Quick
            test_engine_whatif_population;
          Alcotest.test_case "whatif unknown σ field" `Quick
            test_engine_whatif_unknown_field;
          Alcotest.test_case "malformed models" `Quick
            test_engine_malformed_model;
          Alcotest.test_case "model_text invalid flow" `Quick
            test_engine_model_text_invalid_flow;
        ] );
      ( "server",
        [
          Alcotest.test_case "overload shed + full accounting" `Quick
            test_server_overload_and_accounting;
          Alcotest.test_case "shutdown refuses new work" `Quick
            test_server_shutdown_then_refuse;
          Alcotest.test_case "cancel unknown id" `Quick
            test_server_cancel_unknown;
        ] );
      ( "soak",
        [ Alcotest.test_case "150-request chaos smoke" `Quick test_soak_smoke ] );
    ]
