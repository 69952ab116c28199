open Mdp_dataflow
module Core = Mdp_core

type alert =
  | Denied of Event.t * string
  | Risky of Event.t * Core.Action.risk
  | Off_model of Event.t
  | Resynced of Event.t * int

(* A transition the monitor skipped while resynchronising: just enough of
   the label to recognise the event if it turns up late. *)
type pending = {
  p_kind : Core.Action.kind;
  p_actor : string;
  p_store : string option;
  p_fields : Field.t list;
}

type stats = {
  observed : int;
  placed : int;
  duplicates : int;
  late : int;
  resyncs : int;
  skipped : int;
  dead : Event.t list;
  dead_dropped : int;
  consecutive_dead : int;
}

type t = {
  universe : Core.Universe.t;
  lts : Core.Plts.t;
  labels : Core.Action.t array;  (* the LTS's interned labels, by label id *)
  risks : Core.Action.risk option array;
      (* the [annotate] map's risk per label id, looked up once at
         creation so placing an event reads an array, not a hashed label *)
  min_level : Core.Level.t;
  resync_depth : int;
  dead_cap : int;
  mutable state : Core.Plts.state_id;
  mutable last_time : int;
  seen : (string, unit) Hashtbl.t;
  mutable pending : pending list;
  dead_q : Event.t Queue.t;  (* oldest first; bounded by [dead_cap] *)
  mutable dead_dropped : int;
  mutable observed : int;
  mutable placed : int;
  mutable duplicates : int;
  mutable late : int;
  mutable resyncs : int;
  mutable skipped : int;
  mutable consecutive_dead : int;
}

let create ?(min_level = Core.Level.Low) ?(resync_depth = 0)
    ?(dead_letter_cap = 256) ~annotate universe lts =
  let labels = Option.get (Core.Plts.interned_labels lts) in
  {
    universe;
    lts;
    labels;
    risks = Array.map (fun label -> (annotate label).Core.Action.risk) labels;
    min_level;
    resync_depth;
    dead_cap = max 0 dead_letter_cap;
    state = Core.Plts.initial lts;
    last_time = min_int;
    seen = Hashtbl.create 64;
    pending = [];
    dead_q = Queue.create ();
    dead_dropped = 0;
    observed = 0;
    placed = 0;
    duplicates = 0;
    late = 0;
    resyncs = 0;
    skipped = 0;
    consecutive_dead = 0;
  }

let current_state t = t.state

let stats t =
  {
    observed = t.observed;
    placed = t.placed;
    duplicates = t.duplicates;
    late = t.late;
    resyncs = t.resyncs;
    skipped = t.skipped;
    dead = List.of_seq (Queue.to_seq t.dead_q);
    dead_dropped = t.dead_dropped;
    consecutive_dead = t.consecutive_dead;
  }

let matches (event : Event.t) (label : Core.Action.t) =
  label.Core.Action.kind = event.Event.kind
  && label.Core.Action.actor = event.Event.actor
  && label.Core.Action.store = event.Event.store
  && Event.fields_equal label.Core.Action.fields event.Event.fields

(* An in-service event should consume that service's flow transition and
   an ad-hoc access a [Potential] one — otherwise a snoop could swallow a
   pending flow transition and make the real flow look off-model. *)
let provenance_consistent (event : Event.t) (label : Core.Action.t) =
  match (event.Event.service, label.Core.Action.provenance) with
  | Some svc, Core.Action.From_flow { service; _ } -> svc = service
  | None, Core.Action.Potential -> true
  | Some _, Core.Action.Potential | None, Core.Action.From_flow _ -> false

(* The matched transition as (label id, target). *)
let best_match t state event =
  let matching = ref [] in
  Core.Plts.iter_successors_lid t.lts state (fun lid next ->
      if matches event t.labels.(lid) then matching := (lid, next) :: !matching);
  let matching = List.rev !matching in
  match
    List.find_opt
      (fun (lid, _) -> provenance_consistent event t.labels.(lid))
      matching
  with
  | Some _ as exact -> exact
  | None -> ( match matching with m :: _ -> Some m | [] -> None)

let risk_alert t lid =
  match t.risks.(lid) with
  | Some risk when Core.Level.compare risk.level t.min_level >= 0 -> Some risk
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Resilience *)

let pending_of_label (label : Core.Action.t) =
  {
    p_kind = label.Core.Action.kind;
    p_actor = label.Core.Action.actor;
    p_store = label.Core.Action.store;
    p_fields = label.Core.Action.fields;
  }

let pending_matches (event : Event.t) p =
  p.p_kind = event.Event.kind
  && p.p_actor = event.Event.actor
  && p.p_store = event.Event.store
  && Event.fields_equal p.p_fields event.Event.fields

(* Consume the first pending entry the event accounts for, if any. *)
let absorb_pending t event =
  let rec go acc = function
    | [] -> false
    | p :: rest when pending_matches event p ->
      t.pending <- List.rev_append acc rest;
      true
    | p :: rest -> go (p :: acc) rest
  in
  go [] t.pending

(* Breadth-first forward search, bounded by [resync_depth]: the nearest
   state (fewest skipped transitions) with an outgoing transition matching
   the event. Forward-only on purpose — an unmatched on-model event means
   the system moved ahead of us (dropped events), never backwards. *)
let resync t event =
  let visited = Hashtbl.create 32 in
  let q = Queue.create () in
  Queue.add (t.state, []) q;
  Hashtbl.add visited t.state ();
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let state, rev_path = Queue.pop q in
       let depth = List.length rev_path in
       (match if depth = 0 then None else best_match t state event with
       | Some (lid, next) ->
         result := Some (List.rev rev_path, lid, next, depth);
         raise Exit
       | None -> ());
       if depth < t.resync_depth then
         Core.Plts.iter_successors_lid t.lts state (fun lid next ->
             if not (Hashtbl.mem visited next) then begin
               Hashtbl.add visited next ();
               Queue.add (next, t.labels.(lid) :: rev_path) q
             end)
     done
   with Exit -> ());
  !result

let advance t (event : Event.t) next =
  t.state <- next;
  t.placed <- t.placed + 1;
  t.consecutive_dead <- 0;
  if event.Event.time > t.last_time then t.last_time <- event.Event.time

(* Bounded drop-oldest: a monitor that has lost track in a long-lived
   run keeps the newest evidence (the events an operator would replay)
   and a count of what it shed, instead of growing without limit. *)
let dead_letter t event =
  Queue.add event t.dead_q;
  if Queue.length t.dead_q > t.dead_cap then begin
    ignore (Queue.pop t.dead_q : Event.t);
    t.dead_dropped <- t.dead_dropped + 1;
    Mdp_obs.Metrics.incr "monitor/dead_letters_dropped"
  end;
  t.consecutive_dead <- t.consecutive_dead + 1;
  [ Off_model event ]

let place t orig event =
  match best_match t t.state event with
  | Some (lid, next) ->
    advance t event next;
    (match risk_alert t lid with
    | Some risk -> [ Risky (orig, risk) ]
    | None -> [])
  | None when t.resync_depth > 0 -> (
    match resync t event with
    | Some (skipped_labels, lid, next, depth) ->
      t.pending <- t.pending @ List.map pending_of_label skipped_labels;
      t.resyncs <- t.resyncs + 1;
      t.skipped <- t.skipped + depth;
      advance t event next;
      Resynced (orig, depth)
      :: (match risk_alert t lid with
         | Some risk -> [ Risky (orig, risk) ]
         | None -> [])
    | None -> dead_letter t orig)
  | None -> dead_letter t orig

(* Alerts are tallied into the metrics subsystem per constructor, so a
   long-running monitor surfaces its alert mix through the same
   exporters as the offline engines. *)
let record_alerts alerts =
  if Mdp_obs.Metrics.enabled () then
    List.iter
      (fun a ->
        Mdp_obs.Metrics.incr
          (match a with
          | Denied _ -> "monitor/alerts/denied"
          | Risky _ -> "monitor/alerts/risky"
          | Off_model _ -> "monitor/alerts/off_model"
          | Resynced _ -> "monitor/alerts/resynced"))
      alerts

let observe t event =
  Mdp_obs.Metrics.incr "monitor/events";
  t.observed <- t.observed + 1;
  let line = Event.to_line event in
  let alerts =
    if Hashtbl.mem t.seen line then begin
      t.duplicates <- t.duplicates + 1;
      []
    end
    else begin
      Hashtbl.add t.seen line ();
      match Enforce.decide t.universe event with
      | Enforce.Denied reason ->
        (* The action was blocked, so the state must not advance; but an
           attempt the model never predicted is still the strongest
           signal, so report both facets. *)
        let modelled = ref false in
        Core.Plts.iter_successors_lid t.lts t.state (fun lid _ ->
            if matches event t.labels.(lid) then modelled := true);
        Denied (event, reason)
        :: (if !modelled then [] else [ Off_model event ])
      | Enforce.Allowed narrowed ->
        (* A stale timestamp accounted for by a transition we skipped while
           resynchronising is a late arrival, not a new action: absorb it.
           Matching uses the narrowed event — pending entries carry the
           LTS label's (already narrowed) field set. *)
        if event.Event.time <= t.last_time && absorb_pending t narrowed then begin
          t.late <- t.late + 1;
          t.consecutive_dead <- 0;
          []
        end
        else place t event narrowed
    end
  in
  record_alerts alerts;
  alerts

let run_trace t events = List.concat_map (observe t) events

let pp_alert ppf = function
  | Denied (e, reason) -> Format.fprintf ppf "DENIED %a: %s" Event.pp e reason
  | Risky (e, risk) ->
    Format.fprintf ppf "RISK %a: %a" Event.pp e Core.Action.pp_risk risk
  | Off_model e -> Format.fprintf ppf "OFF-MODEL %a" Event.pp e
  | Resynced (e, skipped) ->
    Format.fprintf ppf "RESYNCED (+%d skipped) %a" skipped Event.pp e
