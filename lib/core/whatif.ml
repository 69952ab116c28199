open Mdp_policy

(* The interactive what-if sweep (the batched form of the §IV-A edit
   loop): prepare the base analysis once — its per-signature level
   table — then answer each candidate edit by levelling labels. A
   finding's level is a function of its label alone, so an edit that
   only flips maintenance-exposure flags or σ values re-levels the
   plan's distinct findable labels, and a pure policy shrink levels the
   labels its cone walk reaches; every outcome is one table diffed
   against the base table. Candidates that would change the reachable
   transition structure outside a cone are classified, not recomputed,
   unless [~exact] asks for the full incremental run. *)

type classification = Unchanged | Delta | Cone | Replay | Full_rerun

let classification_to_string = function
  | Unchanged -> "unchanged"
  | Delta -> "delta"
  | Cone -> "cone"
  | Replay -> "replay"
  | Full_rerun -> "full-rerun"

type outcome = {
  edit : Edit.t;
  classification : classification;
  diff : Risk_diff.t option;
  worst_after : Level.t option;
}

type base = {
  analysis : Analysis.t;
  plan : Risk_plan.t;
  view : Risk_plan.view;  (** The base profile's view. *)
  options : Generate.options;
  inputs : Edit.inputs;
  levels : Risk_diff.levels;
      (** Worst level per signature of the plan's findable labels. *)
}

let worst_before base = Risk_diff.worst base.levels
let num_signatures base = Hashtbl.length base.levels
let num_sites base = Risk_plan.num_findable_entries base.plan

(* One table per outcome: the signature levels of [plan]'s findable
   labels under [view]. *)
let plan_levels plan view =
  let levels = Hashtbl.create 64 in
  Risk_plan.iter_findable plan view (Risk_diff.add_level levels);
  levels

let prepare analysis =
  match
    ( analysis.Analysis.plan,
      analysis.Analysis.params.Analysis.profile,
      analysis.Analysis.disclosure )
  with
  | Some plan, Some profile, Some _ ->
    Mdp_obs.Metrics.span "whatif/prepare" @@ fun () ->
    let view = Risk_plan.view plan profile in
    Ok
      {
        analysis;
        plan;
        view;
        options = analysis.Analysis.params.Analysis.options;
        inputs = Analysis.inputs_of analysis;
        levels = plan_levels plan view;
      }
  | _ -> Error "what-if needs an analysis run with a user profile"

(* ----- candidate enumeration ----- *)

let acl_candidates base =
  let grants =
    Policy.concrete_grants base.inputs.Edit.policy base.inputs.Edit.diagram
  in
  (* Read/Write grants are field-granular in both the LTS and the
     report, so each concrete tuple is its own candidate. Maintenance
     exposure is store-level (an actor is a deleter while it holds
     Delete on {e any} field), so the meaningful Delete candidate is the
     whole-store revocation — per-field ones are provably no-ops. *)
  let seen_delete = Hashtbl.create 16 in
  List.filter_map
    (fun (t : Policy.grant_tuple) ->
      let fields =
        if t.perm = Permission.Delete then begin
          if Hashtbl.mem seen_delete (t.actor, t.store) then None
          else begin
            Hashtbl.add seen_delete (t.actor, t.store) ();
            Some None
          end
        end
        else Some (Some [ t.field ])
      in
      Option.map
        (fun fields ->
          Edit.Revoke
            {
              subject = Acl.Actor_subject t.actor;
              store = t.store;
              fields;
              perms = [ t.perm ];
            })
        fields)
    grants

(* ----- label-levelled outcomes ----- *)

let computed base edit classification levels =
  {
    edit;
    classification;
    diff = Some (Risk_diff.of_levels ~before:base.levels ~after:levels);
    worst_after = Some (Risk_diff.worst levels);
  }

(* Maintenance-exposure delta: the edit changed only Delete
   permissions, so the repatched plan — exactly what a compile over the
   reused LTS would give — is levelled under the base view. *)
let maintenance_levels base (after : Edit.inputs) =
  let u =
    Universe.with_policy base.analysis.Analysis.universe after.Edit.policy
  in
  plan_levels (Risk_plan.repatch_maintenance base.plan u) base.view

(* Sensitivity delta: the plan's labels under the edited profile. *)
let sensitivity_levels base (after : Edit.inputs) =
  plan_levels base.plan
    (Risk_plan.view base.plan (Option.get after.Edit.profile))

(* Cone-scoped evaluation: a pure policy-shrink edit answered by a walk
   through the affected store classes' cones ([Regen.walk]), whose
   distinct findable labels determine the after-report's signature
   levels. The patch comes from the comparison the edit was classified
   by. Read-only on the base (fresh labeller and scratch per call),
   so it parallelises like the delta path. *)
let cone_levels base (changes : Generate.policy_changes) =
  match Regen.make_patch base.options changes with
  | None -> None
  | Some patch -> (
    Mdp_obs.Metrics.span "whatif/cone" @@ fun () ->
    match Regen.walk patch base.analysis.Analysis.lts with
    | None -> None
    | Some labels ->
      Mdp_obs.Metrics.incr "whatif/cone_hits";
      let lb = Risk_plan.make_labeller changes.Generate.pc_u in
      let matrix = Risk_plan.matrix base.plan in
      let model = Risk_plan.model base.plan in
      let levels = Hashtbl.create 64 in
      List.iter
        (fun a ->
          Risk_diff.add_level levels a
            (Risk_plan.label_level lb ~matrix ~model base.view a))
        labels;
      Some levels)

(* ----- per-candidate evaluation ----- *)

let exact_outcome base edit classification =
  let t = Analysis.run_incremental ~previous:base.analysis [ edit ] in
  let before = Option.get base.analysis.Analysis.disclosure in
  let after = Option.get t.Analysis.disclosure in
  {
    edit;
    classification;
    diff = Some (Risk_diff.diff ~before ~after);
    worst_after = Some (Disclosure_risk.max_level after);
  }

let uncomputed edit classification =
  { edit; classification; diff = None; worst_after = None }

let eval_edit ?(exact = false) base edit =
  match Edit.apply base.inputs edit with
  | Error msg -> Error msg
  | Ok after ->
    let inv =
      Edit.classify ~options:base.options
        ~universe:base.analysis.Analysis.universe ~before:base.inputs ~after
    in
    let fallback classification =
      if exact then exact_outcome base edit classification
      else uncomputed edit classification
    in
    Ok
      (if inv.Edit.inv_lts then begin
         Mdp_obs.Metrics.incr "whatif/invalidated_lts";
         match Option.bind inv.Edit.inv_cone (cone_levels base) with
         | Some levels -> computed base edit Cone levels
         | None -> fallback Full_rerun
       end
       else begin
         Mdp_obs.Metrics.incr "whatif/incremental_hits";
         if not inv.Edit.inv_risk then computed base edit Unchanged base.levels
         else if
           inv.Edit.inv_plan && after.Edit.profile == base.inputs.Edit.profile
         then begin
           Mdp_obs.Metrics.incr "whatif/invalidated_plan";
           computed base edit Delta (maintenance_levels base after)
         end
         else
           match edit with
           | Edit.Set_sensitivity _
             when (not inv.Edit.inv_plan)
                  && after.Edit.policy == base.inputs.Edit.policy ->
             computed base edit Delta (sensitivity_levels base after)
           | _ -> fallback Replay
       end)

(* ----- ranking sweep ----- *)

let improvement_score (d : Risk_diff.t) =
  let gain (c : Risk_diff.change) = Level.rank c.before - Level.rank c.after in
  List.fold_left
    (fun acc c -> acc + gain c)
    0
    (d.removed @ d.added @ d.changed)

type ranked = { outcome : outcome; score : int }

let sweep ?(jobs = 1) ?(exact = false) base edits =
  Mdp_obs.Metrics.span "phase/whatif" @@ fun () ->
  let arr = Array.of_list edits in
  let n = Array.length arr in
  let eval i =
    match eval_edit ~exact base arr.(i) with
    | Ok o -> o
    | Error msg ->
      (* An inapplicable candidate ranks as unknown. *)
      ignore msg;
      uncomputed arr.(i) Full_rerun
  in
  let outcomes =
    (* The exact path runs a whole incremental analysis per candidate,
       cold explorations included: sequential only. The delta path is
       read-only on the base. *)
    if exact || jobs <= 1 then List.init n eval
    else
      List.concat
        (Mdp_prelude.Parallel.map_chunks ~jobs n (fun lo hi ->
             List.init (hi - lo) (fun j -> eval (lo + j))))
  in
  let ranked =
    List.map
      (fun o ->
        {
          outcome = o;
          score =
            (match o.diff with Some d -> improvement_score d | None -> min_int);
        })
      outcomes
  in
  List.stable_sort (fun a b -> compare b.score a.score) ranked
