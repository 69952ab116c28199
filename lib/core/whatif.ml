open Mdp_policy

(* The interactive what-if sweep (the batched form of the §IV-A edit
   loop): prepare the base analysis once — its per-signature level
   table, the classification's before side and the index the cone walks
   read — then answer each candidate edit by levelling labels. A
   finding's level is a function of its label alone, so an edit that
   keeps the LTS re-levels the reused plan's distinct findable labels,
   a pure policy shrink levels the labels its cone walk reaches, and a
   full rerun levels the labels of a cold exploration; every outcome is
   one table diffed against the base table. Replay and full-rerun
   candidates are classified, not computed, unless [~exact] asks. *)

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
  before : Edit.baseline;  (** Every classification's before side. *)
  index : Regen.index;  (** Every cone walk's view of the base LTS. *)
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

(* Everything that depends only on the base is built here, before any
   fan-out, and only read afterwards. *)
let prepare analysis =
  match
    ( analysis.Analysis.plan,
      analysis.Analysis.params.Analysis.profile,
      analysis.Analysis.disclosure )
  with
  | Some plan, Some profile, Some _ ->
    Mdp_obs.Metrics.span "whatif/prepare" @@ fun () ->
    let view = Risk_plan.view plan profile in
    let options = analysis.Analysis.params.Analysis.options in
    let universe = analysis.Analysis.universe in
    let inputs = Analysis.inputs_of analysis in
    Ok
      {
        analysis;
        plan;
        view;
        options;
        inputs;
        before = Edit.baseline ~options ~universe inputs;
        index = Regen.index universe analysis.Analysis.lts;
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

(* An edit that keeps the LTS: the reused plan's findable labels —
   repatched when the deleter sets moved, exactly what a compile over
   the reused LTS would give — under the edited profile's view. *)
let reuse_levels base (after : Edit.inputs) (inv : Edit.invalidation) =
  let plan =
    if inv.Edit.inv_plan then
      Risk_plan.repatch_maintenance base.plan
        (Universe.with_policy base.analysis.Analysis.universe after.Edit.policy)
    else base.plan
  in
  let view =
    if after.Edit.profile == base.inputs.Edit.profile then base.view
    else Risk_plan.view plan (Option.get after.Edit.profile)
  in
  plan_levels plan view

(* The level table of reachable findable [labels], levelled in [lb]'s
   universe under [view]. *)
let label_levels base lb view labels =
  let matrix = Risk_plan.matrix base.plan in
  let model = Risk_plan.model base.plan in
  let levels = Hashtbl.create 64 in
  List.iter
    (fun a ->
      Risk_diff.add_level levels a
        (Risk_plan.label_level lb ~matrix ~model view a))
    labels;
  levels

(* Cone-scoped evaluation: a pure policy-shrink edit answered by a walk
   through the affected store classes' cones ([Regen.walk]), whose
   distinct findable labels determine the after-report's signature
   levels. The patch comes from the comparison the edit was classified
   by. Reads the base and its index only (each walk has its own
   scratch), so it parallelises like the delta path. *)
let cone_levels base (changes : Generate.policy_changes) =
  match Regen.make_patch base.options changes with
  | None -> None
  | Some patch -> (
    Mdp_obs.Metrics.span "whatif/cone" @@ fun () ->
    match Regen.walk base.index patch with
    | None -> None
    | Some labels ->
      Mdp_obs.Metrics.incr "whatif/cone_hits";
      Some
        (label_levels base
           (Risk_plan.make_labeller changes.Generate.pc_u)
           base.view labels))

(* An edit that changes the LTS, in full: the findable labels of a cold
   exploration of the edited universe (the one the classification built,
   for a policy edit), levelled there under the edited profile. *)
let rerun_levels base (after : Edit.inputs) (inv : Edit.invalidation) =
  let u =
    match inv.Edit.inv_cone with
    | Some c -> c.Generate.pc_u
    | None -> Universe.make after.Edit.diagram after.Edit.policy
  in
  let lb = Risk_plan.make_labeller u in
  label_levels base lb
    (Risk_plan.labeller_view lb (Option.get after.Edit.profile))
    (Regen.cold_labels base.options u)

(* ----- per-candidate evaluation ----- *)

let uncomputed edit classification =
  { edit; classification; diff = None; worst_after = None }

let eval_edit ?(exact = false) base edit =
  match Edit.apply base.inputs edit with
  | Error msg -> Error msg
  | Ok after ->
    let inv = Edit.classify_against base.before after in
    (* Replay and full-rerun outcomes are computed only on request, and
       then counted as the incremental run they stand in for. *)
    let on_request classification levels =
      if exact then begin
        Analysis.count_incremental inv;
        computed base edit classification (levels base after inv)
      end
      else uncomputed edit classification
    in
    Ok
      (if inv.Edit.inv_lts then begin
         Mdp_obs.Metrics.incr "whatif/invalidated_lts";
         match Option.bind inv.Edit.inv_cone (cone_levels base) with
         | Some levels -> computed base edit Cone levels
         | None -> on_request Full_rerun rerun_levels
       end
       else begin
         Mdp_obs.Metrics.incr "whatif/incremental_hits";
         if not inv.Edit.inv_risk then computed base edit Unchanged base.levels
         else if
           inv.Edit.inv_plan && after.Edit.profile == base.inputs.Edit.profile
         then begin
           Mdp_obs.Metrics.incr "whatif/invalidated_plan";
           computed base edit Delta (reuse_levels base after inv)
         end
         else
           match edit with
           | Edit.Set_sensitivity _
             when (not inv.Edit.inv_plan)
                  && after.Edit.policy == base.inputs.Edit.policy ->
             computed base edit Delta (reuse_levels base after inv)
           | _ -> on_request Replay reuse_levels
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
    (* The exact path explores every full-rerun candidate cold:
       sequential only. Every other path reads the base only. *)
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
