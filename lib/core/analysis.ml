type params = {
  options : Generate.options;
  matrix : Risk_matrix.t;
  model : Disclosure_risk.likelihood_model;
  profile : User_profile.t option;
  bindings : Pseudonym_risk.binding list;
}

type t = {
  params : params;
  universe : Universe.t;
  lts : Plts.t;
  consistency : Consistency.gap list;
  disclosure : Disclosure_risk.report option;
  pseudonym : Pseudonym_risk.risk_transition list;
  plan : Risk_plan.t option;
}

(* Everything downstream of exploration. *)
let analyse_phase params universe lts =
  Mdp_obs.Metrics.span "phase/analyse" @@ fun () ->
  let consistency = Consistency.check universe in
  let plan =
    (* Compiled plan path: bit-identical to Disclosure_risk.analyse
       (test_population checks the equality), one witness tree instead
       of one search per finding. Kept on the result so [run_incremental]
       can reuse it. *)
    Option.map
      (fun _ ->
        Risk_plan.compile ~matrix:params.matrix ~model:params.model universe
          lts)
      params.profile
  in
  let disclosure =
    match (plan, params.profile) with
    | Some plan, Some profile -> Some (Risk_plan.analyse plan profile)
    | _ -> None
  in
  let pseudonym = Pseudonym_risk.analyse universe lts params.bindings in
  { params; universe; lts; consistency; disclosure; pseudonym; plan }

let run_universe ?cancel params universe =
  let lts =
    Mdp_obs.Metrics.span "phase/explore" @@ fun () ->
    Generate.run ~options:params.options ?cancel universe
  in
  analyse_phase params universe lts

let run_params ?cancel params diagram policy =
  run_universe ?cancel params (Universe.make diagram policy)

let run ?(options = Generate.default_options) ?(matrix = Risk_matrix.default)
    ?(model = Disclosure_risk.default_likelihood) ?profile ?(bindings = [])
    diagram policy =
  run_params { options; matrix; model; profile; bindings } diagram policy

let rerun_with_policy t policy =
  run_params t.params (Universe.diagram t.universe) policy

let annotate t =
  match (t.plan, t.params.profile) with
  | Some plan, Some profile -> Risk_plan.annotate plan profile
  | _ -> Fun.id

(* ----- incremental re-analysis ----- *)

let inputs_of t =
  {
    Edit.diagram = Universe.diagram t.universe;
    policy = Universe.policy t.universe;
    profile = t.params.profile;
    bindings = t.params.bindings;
  }

let count_incremental (inv : Edit.invalidation) =
  if inv.Edit.inv_lts then begin
    Mdp_obs.Metrics.incr "whatif/invalidated_lts";
    Mdp_obs.Metrics.incr "whatif/invalidated_plan"
  end
  else begin
    Mdp_obs.Metrics.incr "whatif/incremental_hits";
    if inv.Edit.inv_plan then Mdp_obs.Metrics.incr "whatif/invalidated_plan"
  end

let run_incremental ?cancel ?inv ~previous edits =
  Mdp_obs.Metrics.span "phase/whatif" @@ fun () ->
  let before = inputs_of previous in
  let after =
    match Edit.apply_all before edits with
    | Ok a -> a
    | Error msg -> invalid_arg ("Analysis.run_incremental: " ^ msg)
  in
  let inv =
    match inv with
    | Some inv -> inv
    | None ->
      Edit.classify ~options:previous.params.options
        ~universe:previous.universe ~before ~after
  in
  count_incremental inv;
  let params =
    {
      previous.params with
      profile = after.Edit.profile;
      bindings = after.Edit.bindings;
    }
  in
  if inv.Edit.inv_lts then
    (* One exact path for an edited transition structure: a cold
       exploration of the edited model (of the universe the
       classification built, for a policy edit). *)
    match inv.Edit.inv_cone with
    | Some c -> run_universe ?cancel params c.Generate.pc_u
    | None -> run_params ?cancel params after.Edit.diagram after.Edit.policy
  else begin
    let policy_changed = before.Edit.policy != after.Edit.policy in
    let universe =
      if policy_changed then
        Universe.with_policy previous.universe after.Edit.policy
      else previous.universe
    in
    let lts = previous.lts in
    let consistency =
      if inv.Edit.inv_consistency then Consistency.check universe
      else previous.consistency
    in
    let plan, disclosure =
      match params.profile with
      | None -> (None, None)
      | Some profile ->
        let plan =
          match previous.plan with
          | None ->
            (* A fresh compile over the reused LTS equals the cold
               one. *)
            Risk_plan.compile ~matrix:params.matrix ~model:params.model
              universe lts
          | Some plan ->
            if inv.Edit.inv_plan then
              Risk_plan.repatch_maintenance plan universe
            else if policy_changed then Risk_plan.with_universe plan universe
            else plan
        in
        let disclosure =
          if inv.Edit.inv_risk || previous.disclosure = None then
            Some (Risk_plan.analyse plan profile)
          else previous.disclosure
        in
        (Some plan, disclosure)
    in
    let pseudonym =
      if inv.Edit.inv_pseudonym then
        Pseudonym_risk.analyse universe lts after.Edit.bindings
      else previous.pseudonym
    in
    { params; universe; lts; consistency; disclosure; pseudonym; plan }
  end

(* ----- structured failures ----- *)

type failure =
  | State_limit of { limit : int; hint : string }
  | Cancelled of { phase : string; deadline : bool }
  | Spill_io of { message : string }

let state_limit_hint =
  "raise --max-states, restrict --service, or simplify the model"

let failure_message = function
  | State_limit { limit; hint } ->
    Printf.sprintf "LTS exceeds %d states; %s" limit hint
  | Cancelled { phase; deadline = true } ->
    Printf.sprintf "analysis deadline exceeded during %s" phase
  | Cancelled { phase; deadline = false } ->
    Printf.sprintf "analysis cancelled during %s" phase
  | Spill_io { message } -> Printf.sprintf "spill tier I/O error: %s" message

(* The exploration is the only unbounded phase, so every failure mode
   is attributed to it; the risk passes walk an already-bounded LTS. *)
let checked f =
  match f () with
  | v -> Ok v
  | exception Mdp_lts.Lts.Too_many_states limit ->
    Error (State_limit { limit; hint = state_limit_hint })
  | exception Mdp_obs.Cancel.Cancelled reason ->
    Error
      (Cancelled
         { phase = "explore"; deadline = reason = Mdp_obs.Cancel.Deadline })
  | exception Mdp_lts.Spill.Io_error message -> Error (Spill_io { message })

let run_checked ?(options = Generate.default_options)
    ?(matrix = Risk_matrix.default) ?(model = Disclosure_risk.default_likelihood)
    ?profile ?(bindings = []) ?cancel diagram policy =
  checked (fun () ->
      run_params ?cancel
        { options; matrix; model; profile; bindings }
        diagram policy)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>model: %s@,"
    (Lts_render.summary_with_risks t.lts t.pseudonym);
  (match t.consistency with
  | [] -> Format.fprintf ppf "policy consistency: ok@,"
  | gaps ->
    Format.fprintf ppf "policy gaps (%d):@,  @[<v>%a@]@," (List.length gaps)
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Consistency.pp_gap)
      gaps);
  (match t.disclosure with
  | None -> ()
  | Some report ->
    Format.fprintf ppf "%a@," Disclosure_risk.pp_report report);
  match t.pseudonym with
  | [] -> Format.fprintf ppf "no pseudonymisation risk transitions@]"
  | rts ->
    Format.fprintf ppf "pseudonymisation risk transitions (%d):@,  @[<v>%a@]@]"
      (List.length rts)
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut
         Pseudonym_risk.pp_risk_transition)
      rts
