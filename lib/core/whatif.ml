open Mdp_dataflow
open Mdp_policy

(* The interactive what-if sweep (the batched form of the §IV-A edit
   loop): prepare the base analysis once — per-finding-site scenario
   terms, finding signatures, per-slot indices — then evaluate each
   candidate edit as a delta against that substrate. A candidate whose
   edit only flips maintenance-exposure flags or σ values re-levels
   just the affected signatures' sites (microseconds to milliseconds);
   candidates that would change the reachable transition structure are
   classified, not recomputed, unless [~exact] asks for the full
   incremental run. *)

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
  profile : User_profile.t;
  options : Generate.options;
  inputs : Edit.inputs;
  sites : Risk_plan.site array;
  slot_allowed : bool array;
  slot_index : (string * string, int) Hashtbl.t;
      (** (actor, store) -> slot, store-bearing slots only. *)
  signatures : Risk_diff.signature array;
  sig_sites : int array array;
  slot_sigs : int array array;
  sigs_by_field : (string, int list) Hashtbl.t;
  base_sig_level : Level.t array;
  base_hist : int array;  (** Signature count per [Level.rank]. *)
  present_before : int;  (** Signatures with a base level above None. *)
  worst_before : Level.t;
}

let worst_before base = base.worst_before
let num_signatures base = Array.length base.signatures
let num_sites base = Array.length base.sites

let prepare analysis =
  match
    ( analysis.Analysis.plan,
      analysis.Analysis.params.Analysis.profile,
      analysis.Analysis.disclosure )
  with
  | Some plan, Some profile, Some _ ->
    Mdp_obs.Metrics.span "whatif/prepare" @@ fun () ->
    let inputs = Analysis.inputs_of analysis in
    let sites = Risk_plan.finding_sites plan profile in
    let slots = Risk_plan.slots plan in
    let nslots = Array.length slots in
    let allowed = User_profile.allowed_actors profile inputs.Edit.diagram in
    let slot_allowed =
      Array.map (fun (actor, _) -> List.mem actor allowed) slots
    in
    let slot_index = Hashtbl.create (max nslots 1) in
    Array.iteri
      (fun i (actor, store) ->
        match store with
        | Some s -> Hashtbl.replace slot_index (actor, s) i
        | None -> ())
      slots;
    (* Intern finding signatures: findable entries are reads, so a
       signature is one (slot, sorted field names) pair. *)
    let sig_ids : (int * string list, int) Hashtbl.t = Hashtbl.create 64 in
    let sig_list = ref [] and nsigs = ref 0 in
    let site_sig =
      Array.map
        (fun (s : Risk_plan.site) ->
          let key = (s.site_slot, s.site_fields) in
          match Hashtbl.find_opt sig_ids key with
          | Some id -> id
          | None ->
            let id = !nsigs in
            incr nsigs;
            Hashtbl.add sig_ids key id;
            let actor, store = slots.(s.site_slot) in
            sig_list :=
              ( {
                  Risk_diff.actor;
                  store;
                  kind = Action.Read;
                  fields = s.site_fields;
                },
                s.site_slot )
              :: !sig_list;
            id)
        sites
    in
    let sig_pairs = Array.of_list (List.rev !sig_list) in
    let signatures = Array.map fst sig_pairs in
    let sig_slot = Array.map snd sig_pairs in
    let nsigs = !nsigs in
    let sig_site_lists = Array.make nsigs [] in
    Array.iteri
      (fun i id -> sig_site_lists.(id) <- i :: sig_site_lists.(id))
      site_sig;
    let sig_sites =
      Array.map (fun l -> Array.of_list (List.rev l)) sig_site_lists
    in
    let slot_sig_lists = Array.make (max nslots 1) [] in
    Array.iteri
      (fun id slot -> slot_sig_lists.(slot) <- id :: slot_sig_lists.(slot))
      sig_slot;
    let slot_sigs =
      Array.map (fun l -> Array.of_list (List.rev l)) slot_sig_lists
    in
    let sigs_by_field = Hashtbl.create 64 in
    Array.iteri
      (fun id (s : Risk_diff.signature) ->
        List.iter
          (fun f ->
            let prev =
              Option.value (Hashtbl.find_opt sigs_by_field f) ~default:[]
            in
            Hashtbl.replace sigs_by_field f (id :: prev))
          s.fields)
      signatures;
    Hashtbl.iter
      (fun f ids -> Hashtbl.replace sigs_by_field f (List.rev ids))
      (Hashtbl.copy sigs_by_field);
    let base_sig_level = Array.make nsigs Level.None_ in
    Array.iteri
      (fun i (s : Risk_plan.site) ->
        let lvl =
          Risk_plan.site_level plan s ~maintenance:s.site_maintenance
        in
        let id = site_sig.(i) in
        base_sig_level.(id) <- Level.max base_sig_level.(id) lvl)
      sites;
    let base_hist = Array.make 4 0 in
    let present_before = ref 0 and worst = ref Level.None_ in
    Array.iter
      (fun lvl ->
        base_hist.(Level.rank lvl) <- base_hist.(Level.rank lvl) + 1;
        if Level.compare lvl Level.None_ > 0 then incr present_before;
        worst := Level.max !worst lvl)
      base_sig_level;
    Ok
      {
        analysis;
        plan;
        profile;
        options = analysis.Analysis.params.Analysis.options;
        inputs;
        sites;
        slot_allowed;
        slot_index;
        signatures;
        sig_sites;
        slot_sigs;
        sigs_by_field;
        base_sig_level;
        base_hist;
        present_before = !present_before;
        worst_before = !worst;
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

(* ----- delta evaluation ----- *)

let unchanged_outcome base edit =
  {
    edit;
    classification = Unchanged;
    diff =
      Some
        {
          Risk_diff.removed = [];
          added = [];
          changed = [];
          unchanged = base.present_before;
        };
    worst_after = Some base.worst_before;
  }

(* Re-level the given signatures with [site_after] giving each affected
   site its new level, and fold the result into a [Risk_diff.t] plus the
   new worst level. O(sites of affected signatures). *)
let relevel base affected site_after =
  let hist = Array.copy base.base_hist in
  let removed = ref [] and added = ref [] and changed = ref [] in
  let affected_present_before = ref 0 and unchanged_affected = ref 0 in
  let worst_affected = ref Level.None_ in
  List.iter
    (fun id ->
      let before = base.base_sig_level.(id) in
      let after =
        Array.fold_left
          (fun acc i -> Level.max acc (site_after i base.sites.(i)))
          Level.None_ base.sig_sites.(id)
      in
      hist.(Level.rank before) <- hist.(Level.rank before) - 1;
      hist.(Level.rank after) <- hist.(Level.rank after) + 1;
      worst_affected := Level.max !worst_affected after;
      let pb = Level.compare before Level.None_ > 0 in
      let pa = Level.compare after Level.None_ > 0 in
      if pb then incr affected_present_before;
      let change = { Risk_diff.signature = base.signatures.(id); before; after } in
      if pb && not pa then removed := change :: !removed
      else if pa && not pb then added := change :: !added
      else if pb && pa then
        if Level.equal before after then incr unchanged_affected
        else changed := change :: !changed)
    affected;
  let worst =
    let w = ref Level.None_ in
    for r = 3 downto 1 do
      if !w = Level.None_ && hist.(r) > 0 then
        w := (match r with 1 -> Level.Low | 2 -> Level.Medium | _ -> Level.High)
    done;
    !w
  in
  let diff =
    {
      Risk_diff.removed = List.rev !removed;
      added = List.rev !added;
      changed = List.rev !changed;
      unchanged =
        base.present_before - !affected_present_before + !unchanged_affected;
    }
  in
  (diff, worst)

(* Maintenance-exposure delta: the edit changed some store-level deleter
   sets. Affected signatures are those of the (actor, store) slots whose
   membership flipped; each of their sites re-levels with the flag
   overridden. *)
let maintenance_delta base (after : Edit.inputs) =
  let before_sets =
    Edit.deleter_sets base.inputs.Edit.diagram base.inputs.Edit.policy
  in
  let after_sets =
    Edit.deleter_sets base.inputs.Edit.diagram after.Edit.policy
  in
  let stores = base.inputs.Edit.diagram.Diagram.datastores in
  (* slot -> new maintenance flag, for flipped (actor, store) pairs. *)
  let flips = Hashtbl.create 4 in
  List.iteri
    (fun i (ds : Datastore.t) ->
      let b = List.nth before_sets i and a = List.nth after_sets i in
      List.iter
        (fun actor ->
          let was = List.mem actor b and is_ = List.mem actor a in
          if was <> is_ then
            match Hashtbl.find_opt base.slot_index (actor, ds.Datastore.id) with
            | Some slot -> Hashtbl.replace flips slot is_
            | None -> ())
        (Mdp_prelude.Listx.dedup (b @ a)))
    stores;
  let affected =
    Hashtbl.fold
      (fun slot _ acc -> Array.to_list base.slot_sigs.(slot) @ acc)
      flips []
    |> List.sort_uniq compare
  in
  relevel base affected (fun _ (s : Risk_plan.site) ->
      let maintenance =
        match Hashtbl.find_opt flips s.Risk_plan.site_slot with
        | Some flag -> flag
        | None -> s.site_maintenance
      in
      Risk_plan.site_level base.plan s ~maintenance)

(* Sensitivity delta: σ(field) changed; affected signatures are those
   whose field set contains it. Likelihood terms are untouched; impact
   re-evaluates as max σ' over the site's fields (0 stays 0 for allowed
   actors). *)
let sensitivity_delta base (after : Edit.inputs) field =
  let name = Field.name field in
  let affected =
    Option.value (Hashtbl.find_opt base.sigs_by_field name) ~default:[]
  in
  let profile' = Option.get after.Edit.profile in
  let sens = Hashtbl.create 16 in
  List.iter
    (fun (f, v) -> Hashtbl.replace sens (Field.name f) v)
    (User_profile.sensitivities profile');
  let sigma n = Option.value (Hashtbl.find_opt sens n) ~default:0.0 in
  relevel base affected (fun _ (s : Risk_plan.site) ->
      if base.slot_allowed.(s.Risk_plan.site_slot) then Level.None_
      else
        let impact =
          List.fold_left
            (fun acc n -> Float.max acc (sigma n))
            0.0 s.site_fields
        in
        Risk_plan.site_level base.plan
          { s with site_impact = impact }
          ~maintenance:s.site_maintenance)

(* Cone-scoped evaluation: a pure policy-shrink edit answered by a walk
   through the affected store classes' cones ([Regen.walk]). For a
   Read/Write ACL edit a finding's level is a pure function of its
   label, so the distinct findable labels reachable in the edited model
   determine the after-report's signature levels — max level per
   signature over the walked labels, then a set diff against the base
   signature levels. Read-only on the base (fresh labeller and scratch
   per call), so it parallelises like the delta path. Change
   lists come out sorted by signature — same sets as the exact path,
   canonical order. *)
let cone_outcome base edit (after : Edit.inputs) =
  let u_old = base.analysis.Analysis.universe in
  let u = Universe.make after.Edit.diagram after.Edit.policy in
  match Regen.make_patch ~u_old ~u base.options with
  | None -> None
  | Some patch -> (
    Mdp_obs.Metrics.span "whatif/cone" @@ fun () ->
    match Regen.walk patch base.analysis.Analysis.lts with
    | None -> None
    | Some labels ->
      Mdp_obs.Metrics.incr "whatif/cone_hits";
      let lb = Risk_plan.make_labeller u in
      let matrix = Risk_plan.matrix base.plan in
      let model = Risk_plan.model base.plan in
      let view = Risk_plan.view base.plan base.profile in
      let after_levels : (Risk_diff.signature, Level.t) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun (a : Action.t) ->
          let lvl = Risk_plan.label_level lb ~matrix ~model view a in
          if Level.compare lvl Level.None_ > 0 then begin
            let s =
              {
                Risk_diff.actor = a.Action.actor;
                store = a.Action.store;
                kind = a.Action.kind;
                fields =
                  List.sort String.compare (List.map Field.name a.fields);
              }
            in
            let prev =
              Option.value (Hashtbl.find_opt after_levels s)
                ~default:Level.None_
            in
            Hashtbl.replace after_levels s (Level.max prev lvl)
          end)
        labels;
      let worst_after = ref Level.None_ in
      Hashtbl.iter
        (fun _ lvl -> worst_after := Level.max !worst_after lvl)
        after_levels;
      let removed = ref [] and added = ref [] and changed = ref [] in
      let unchanged = ref 0 in
      Array.iteri
        (fun id before ->
          if Level.compare before Level.None_ > 0 then begin
            let s = base.signatures.(id) in
            match Hashtbl.find_opt after_levels s with
            | Some after_l ->
              Hashtbl.remove after_levels s;
              if Level.equal before after_l then incr unchanged
              else
                changed :=
                  { Risk_diff.signature = s; before; after = after_l }
                  :: !changed
            | None ->
              removed :=
                { Risk_diff.signature = s; before; after = Level.None_ }
                :: !removed
          end)
        base.base_sig_level;
      (* anything left was absent from the base report: shrunk labels
         can intern fresh signatures (smaller field sets) *)
      Hashtbl.iter
        (fun s after_l ->
          added :=
            { Risk_diff.signature = s; before = Level.None_; after = after_l }
            :: !added)
        after_levels;
      let by_sig (a : Risk_diff.change) (b : Risk_diff.change) =
        compare a.Risk_diff.signature b.Risk_diff.signature
      in
      let diff =
        {
          Risk_diff.removed = List.sort by_sig !removed;
          added = List.sort by_sig !added;
          changed = List.sort by_sig !changed;
          unchanged = !unchanged;
        }
      in
      Some
        {
          edit;
          classification = Cone;
          diff = Some diff;
          worst_after = Some !worst_after;
        })

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

let eval_edit ?(exact = false) base edit =
  match Edit.apply base.inputs edit with
  | Error msg -> Error msg
  | Ok after ->
    let inv = Edit.classify ~options:base.options ~before:base.inputs ~after in
    if inv.Edit.inv_lts then begin
      Mdp_obs.Metrics.incr "whatif/invalidated_lts";
      match
        if inv.Edit.inv_cone then cone_outcome base edit after else None
      with
      | Some o -> Ok o
      | None ->
        if exact then Ok (exact_outcome base edit Full_rerun)
        else
          Ok
            {
              edit;
              classification = Full_rerun;
              diff = None;
              worst_after = None;
            }
    end
    else begin
      Mdp_obs.Metrics.incr "whatif/incremental_hits";
      if not inv.Edit.inv_risk then Ok (unchanged_outcome base edit)
      else begin
        let profile_untouched =
          after.Edit.profile == base.inputs.Edit.profile
        in
        if inv.Edit.inv_plan && profile_untouched then begin
          Mdp_obs.Metrics.incr "whatif/invalidated_plan";
          let diff, worst = maintenance_delta base after in
          Ok
            {
              edit;
              classification = Delta;
              diff = Some diff;
              worst_after = Some worst;
            }
        end
        else
          match edit with
          | Edit.Set_sensitivity (field, _)
            when (not inv.Edit.inv_plan)
                 && after.Edit.policy == base.inputs.Edit.policy ->
            let diff, worst = sensitivity_delta base after field in
            Ok
              {
                edit;
                classification = Delta;
                diff = Some diff;
                worst_after = Some worst;
              }
          | _ ->
            if exact then Ok (exact_outcome base edit Replay)
            else
              Ok
                {
                  edit;
                  classification = Replay;
                  diff = None;
                  worst_after = None;
                }
      end
    end

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
      { edit = arr.(i); classification = Full_rerun; diff = None;
        worst_after = None }
  in
  let outcomes =
    (* The exact path re-analyses on the shared LTS (label mutation):
       sequential only. The delta path is read-only on the base. *)
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
