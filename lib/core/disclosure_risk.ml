open Mdp_dataflow
open Mdp_prelude

type likelihood_model = {
  accidental_access : float;
  maintenance_exposure : float;
  rogue_service : float;
}

let default_likelihood =
  { accidental_access = 0.05; maintenance_exposure = 0.02; rogue_service = 0.01 }

(* The single combination point for the three §III-A scenario
   probabilities, shared with [Risk_plan.eval_likelihood] so the naive
   and compiled engines stay float-identical: the paper's sum, clipped
   to 1. The saturation is not silent: it bumps the
   [risk/likelihood_saturated] counter so an aggressive model that
   pushes the sum past 1 shows up in [--metrics] output. *)
let combine_scenarios ~accidental ~maintenance ~rogue =
  let sum = accidental +. maintenance +. rogue in
  if sum > 1.0 then Mdp_obs.Metrics.incr "risk/likelihood_saturated";
  Float.min 1.0 sum

type trail = Start | Hop of trail * Action.t

type finding = {
  src : Plts.state_id;
  dst : Plts.state_id;
  action : Action.t;
  impact : float;
  likelihood : float;
  impact_level : Level.t;
  likelihood_level : Level.t;
  level : Level.t;
  trail : trail;
}

let witness f =
  let rec root_first acc = function
    | Start -> acc
    | Hop (parent, label) -> root_first (label :: acc) parent
  in
  root_first [] f.trail

type report = {
  non_allowed : string list;
  findings : finding list;
  exposures : finding list;
}

let transition_impact u profile (action : Action.t) =
  let diagram = Universe.diagram u in
  match action.kind with
  | Action.Collect | Action.Read | Action.Disclose ->
    Listx.max_byf
      (fun f -> User_profile.sigma profile diagram ~actor:action.actor f)
      action.fields
  | Action.Create | Action.Anon ->
    (* Impact ranges over every actor that could then identify the
       created fields. Anon flows create the anon variants. *)
    let created =
      match action.kind with
      | Action.Anon -> List.map Field.anon_of action.fields
      | _ -> action.fields
    in
    let store =
      match action.store with
      | Some s -> Universe.store_index u s
      | None -> invalid_arg "transition_impact: create without store"
    in
    Listx.max_byf
      (fun f ->
        let fi = Universe.field_index u f in
        Listx.max_byf
          (fun a ->
            User_profile.sigma profile diagram
              ~actor:(Universe.actor_name u a) f)
          (Universe.readers u ~store ~field:fi))
      created
  | Action.Delete -> 0.0

(* Does the actor take part in a service the user did not agree to, one of
   whose flows reads this store into the actor? (§III-A's third scenario:
   "an actor begins the execution of a service that the user did not agree
   to use".) [flows] is the diagram's [Diagram.all_flows]. *)
let in_rogue_read flows profile ~actor ~store =
  List.exists
    (fun ((svc : Service.t), (flow : Flow.t)) ->
      (not (User_profile.agrees_to profile svc.id))
      && Flow.equal_node flow.src (Flow.Store store)
      && Flow.equal_node flow.dst (Flow.Actor actor))
    (Lazy.force flows)

(* Partial application to (u, profile, model) shares one flow list
   across every action scored. *)
let transition_likelihood u profile model =
  let flows = lazy (Diagram.all_flows (Universe.diagram u)) in
  fun (action : Action.t) ->
    match (action.kind, action.store) with
    | Action.Read, Some store_id ->
      let store = Universe.store_index u store_id in
      let actor_i = Universe.actor_index u action.actor in
      let accidental =
        match action.provenance with
        | Action.Potential -> model.accidental_access
        | Action.From_flow { service; _ } ->
          (* A read prescribed by a non-agreed service is the rogue-service
             scenario itself; within an agreed service it is wanted
             behaviour, not an accident. *)
          if User_profile.agrees_to profile service then 0.0
          else model.rogue_service
      in
      let maintenance =
        if List.mem actor_i (Universe.deleters u ~store) then
          model.maintenance_exposure
        else 0.0
      in
      let rogue =
        match action.provenance with
        | Action.From_flow _ -> 0.0 (* already counted above *)
        | Action.Potential ->
          if in_rogue_read flows profile ~actor:action.actor ~store:store_id
          then model.rogue_service
          else 0.0
      in
      combine_scenarios ~accidental ~maintenance ~rogue
    | (Action.Read | Action.Collect | Action.Create | Action.Disclose
      | Action.Anon | Action.Delete), _ ->
      0.0

module Atbl = Hashtbl.Make (Action)

let analyse ?(matrix = Risk_matrix.default) ?(model = default_likelihood) u lts
    profile =
  (* One annotated copy per distinct read label, shared by every finding
     and witness hop. *)
  let likelihood_of = transition_likelihood u profile model in
  let annotated = Atbl.create 64 in
  let annotate label =
    match label.Action.kind with
    | Action.Read -> (
      match Atbl.find_opt annotated label with
      | Some a -> a
      | None ->
        let impact = transition_impact u profile label in
        let likelihood = likelihood_of label in
        let a =
          Action.with_risk label (Risk_matrix.assess matrix ~impact ~likelihood)
        in
        Atbl.add annotated label a;
        a)
    | Action.Collect | Action.Create | Action.Disclose | Action.Anon
    | Action.Delete ->
      label
  in
  (* One BFS tree per call. Parents are assigned at first discovery in
     successor order, exactly as a per-finding [Plts.path_to] search
     would, so every trail is the same path. A state is discovered after
     its parent, so its trail is one hop on the parent's finished one. *)
  let n = Plts.num_states lts in
  let trails = Array.make n Start in
  if n > 0 then begin
    let seen = Array.make n false and q = Queue.create () in
    seen.(Plts.initial lts) <- true;
    Queue.push (Plts.initial lts) q;
    while not (Queue.is_empty q) do
      let s = Queue.pop q in
      Plts.iter_successors lts s (fun label d ->
          if not seen.(d) then begin
            seen.(d) <- true;
            trails.(d) <- Hop (trails.(s), annotate label);
            Queue.push d q
          end)
    done
  end;
  let findings = ref [] and exposures = ref [] in
  Plts.iter_transitions lts (fun { src; label; dst } ->
      let impact = transition_impact u profile label in
      let likelihood = likelihood_of label in
      let impact_level = Risk_matrix.impact_level matrix impact in
      let likelihood_level = Risk_matrix.likelihood_level matrix likelihood in
      let level =
        Risk_matrix.level matrix ~impact:impact_level ~likelihood:likelihood_level
      in
      let finding () =
        {
          src;
          dst;
          action = annotate label;
          impact;
          likelihood;
          impact_level;
          likelihood_level;
          level;
          trail = trails.(src);
        }
      in
      match label.Action.kind with
      | Action.Read ->
        if Level.compare level Level.None_ > 0 then
          findings := finding () :: !findings
      | Action.Collect | Action.Create | Action.Disclose | Action.Anon ->
        if impact > 0.0 then exposures := finding () :: !exposures
      | Action.Delete -> ());
  let by_severity a b =
    match Level.compare b.level a.level with
    | 0 -> Float.compare b.impact a.impact
    | c -> c
  in
  {
    non_allowed = User_profile.non_allowed_actors profile (Universe.diagram u);
    findings = List.sort by_severity !findings;
    exposures = List.sort by_severity !exposures;
  }

let max_level report =
  List.fold_left (fun acc f -> Level.max acc f.level) Level.None_ report.findings

let findings_for report ~actor =
  List.filter (fun f -> f.action.Action.actor = actor) report.findings

let level_for report ~actor ~store ~field =
  List.fold_left
    (fun acc f ->
      if
        f.action.Action.actor = actor
        && f.action.Action.store = Some store
        && List.exists (Field.equal field) f.action.Action.fields
      then Level.max acc f.level
      else acc)
    Level.None_ report.findings

(* Everything a finding line shows but its source state. *)
let pp_prefix ppf f =
  Format.fprintf ppf "[%a] %a (impact %.2f=%a, likelihood %.2f=%a)" Level.pp
    f.level Action.pp f.action f.impact Level.pp f.impact_level f.likelihood
    Level.pp f.likelihood_level

let pp_finding ppf f = Format.fprintf ppf "%a at s%d" pp_prefix f f.src

(* Everything [pp_prefix] prints, compared as the prefix table's
   structural key would compare it. *)
let same_prefix a b =
  a.action == b.action
  && Float.equal a.impact b.impact
  && Float.equal a.likelihood b.likelihood
  && Level.equal a.impact_level b.impact_level
  && Level.equal a.likelihood_level b.likelihood_level
  && Level.equal a.level b.level

let pp_report ppf r =
  (* Findings of one label differ only in their states: render each
     distinct prefix once. Both engines give every finding of a label
     one physical annotated action, so the previous line's prefix is
     tried first. The table serves a label seen before the previous
     line, and equal but distinct actions in a hand-built report. *)
  let prefixes = Hashtbl.create 64 in
  let last = ref None in
  let prefix f =
    match !last with
    | Some (g, p) when same_prefix f g -> p
    | _ ->
      let key = { f with src = 0; dst = 0; trail = Start } in
      let p =
        match Hashtbl.find_opt prefixes key with
        | Some p -> p
        | None ->
          let p = Format.asprintf "%a" pp_prefix f in
          Hashtbl.add prefixes key p;
          p
      in
      last := Some (f, p);
      p
  in
  let pp_line ppf f =
    Format.pp_print_string ppf (prefix f);
    Format.pp_print_string ppf " at s";
    Format.pp_print_int ppf f.src
  in
  Format.fprintf ppf "@[<v>non-allowed actors: %s@,%d risk finding(s):@,%a@]"
    (String.concat ", " r.non_allowed)
    (List.length r.findings)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_line)
    r.findings
