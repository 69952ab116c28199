open Mdp_dataflow
open Mdp_prelude

(* Everything about a label's §III-A risk that does not depend on the
   user profile, resolved to dense indices once per distinct label. The
   risk of a transition is a function of its label alone (action,
   fields, actor, store, provenance), so the plan keeps no transitions
   of its own — it reads the LTS's edge rows through a remap from
   interned label ids to plan labels — and per-profile evaluation is
   one pass over the label table: look up σ by field index, test actor
   allowance by actor index, test service agreement by bitset — no
   diagram scans, no string lookups, no flow traversals.

   The compiled plan reproduces [Disclosure_risk.analyse] bit for bit
   (same floats, same ordering, same annotated actions); the equality is
   enforced by test/test_population.ml. *)

(* How the impact of a label is computed (naive reference:
   [Disclosure_risk.transition_impact]). *)
type impact_plan =
  | Imp_none  (** [delete]: sets nothing, impact 0. *)
  | Imp_actor of { actor : int; fields : int array }
      (** [collect]/[read]/[disclose]: max σ(field, actor) over the
          action's fields. *)
  | Imp_readers of { fields : (int * int array) array }
      (** [create]/[anon]: per created field, the policy-permitted
          reader set; impact is the max σ over (field, reader) pairs. *)

(* The accidental-access term of the likelihood (first §III-A scenario). *)
type accidental =
  | Acc_potential  (** Potential read: [model.accidental_access]. *)
  | Acc_agreed of int
      (** Read prescribed by diagram service [i]: 0 when agreed,
          [model.rogue_service] otherwise. *)
  | Acc_by_name of string
      (** Fallback for a provenance service absent from the diagram
          (cannot arise from [Generate]); resolved against the raw
          agreed-service list. *)

type likelihood_plan = {
  lk_accidental : accidental;
  lk_maintenance : bool;
      (** Actor holds the Delete permission on the store (second
          scenario, [model.maintenance_exposure]). *)
  lk_rogue : Bitset.t option;
      (** Third scenario, potential reads only: the diagram
          services owning a [store -> actor] read flow. The term fires
          iff at least one of them is not agreed ([None] for from-flow
          reads, where the scenario is folded into [lk_accidental]). *)
  lk_actor : int;
  lk_store : int;
      (** Dense indices of the reading actor and the store, kept so
          {!repatch_maintenance} can re-derive [lk_maintenance] against
          an edited policy without touching labels. *)
}

type label_plan = {
  l_action : Action.t;  (** The label as compiled. *)
  l_findable : bool;
      (** {!Action.findable} (a read from a flow or a potential read): the
          only labels that get a [Disclosure_risk] annotation and whose
          transitions can become findings. *)
  l_slot : int;  (** Hotspot slot of a findable label; -1 otherwise. *)
  l_impact : impact_plan;
  l_likelihood : likelihood_plan option;  (** [Some] for store reads. *)
}

module Atbl = Hashtbl.Make (Action)

type t = {
  u : Universe.t;
  lts : Plts.t;
  matrix : Risk_matrix.t;
  model : Disclosure_risk.likelihood_model;
  labels : label_plan array;  (** Distinct labels, first-occurrence order. *)
  by_label : int Atbl.t;
      (** Findable LTS label -> label id: how {!annotate} finds a
          label's plan. *)
  remap : int array;  (** Interned LTS label id -> label id. *)
  findable_entries : int;  (** Transitions with a findable label. *)
  findable_labels : int array;
  slots : (string * string option) array;
      (** Slot -> (actor, store) of its findable labels — the hotspot
          key the population aggregation counts per user. *)
  tree : int array * int array;
      (** The LTS's {!Plts.witness_tree}: state -> BFS parent and
          state -> interned label id of the discovering transition. *)
}

let slots t = t.slots
let matrix t = t.matrix
let model t = t.model
let num_entries t = Plts.num_transitions t.lts
let num_findable_entries t = t.findable_entries

let with_universe t u = { t with u }

(* Recompute the maintenance-exposure flags against [u]'s deleter sets.
   Everything else in the plan depends only on the diagram, the LTS and
   the reader sets, none of which a delete-permission edit can change
   (deleters feed exploration only under [potential_deletes]) — so the
   repatched plan is exactly what [compile u lts] would produce, at the
   cost of one label walk. Labels whose flag is unchanged are shared,
   not copied. *)
let repatch_maintenance t u =
  let nstores = Universe.nstores u in
  let nactors = Universe.nactors u in
  let deletes = Array.make (nstores * nactors) false in
  for s = 0 to nstores - 1 do
    List.iter
      (fun a -> deletes.((s * nactors) + a) <- true)
      (Universe.deleters u ~store:s)
  done;
  let labels =
    Array.map
      (fun l ->
        match l.l_likelihood with
        | Some lk ->
          let flag = deletes.((lk.lk_store * nactors) + lk.lk_actor) in
          if flag = lk.lk_maintenance then l
          else { l with l_likelihood = Some { lk with lk_maintenance = flag } }
        | None -> l)
      t.labels
  in
  { t with u; labels }

(* ----- label semantics (shared by [compile] and the cone path) ----- *)

(* Everything needed to turn a transition label into its impact and
   likelihood plans, precomputed once per universe. [compile] uses one
   per plan; the cone-scoped what-if path ({!Whatif}) builds one for the
   edited universe and levels the walked labels directly, without
   compiling a plan over a rebuilt LTS. *)
type labeller = {
  lb_u : Universe.t;
  lb_svc_ids : (string, int) Hashtbl.t;
  lb_no_candidates : Bitset.t;
  lb_rogue : (string * string, Bitset.t) Hashtbl.t;
      (* (store id, actor id) -> services with a Store -> Actor read
         flow: the §III-A rogue-service candidates, found once instead
         of scanning [Diagram.all_flows] per transition per profile. *)
}

let make_labeller u =
  let diagram = Universe.diagram u in
  let svc_ids = Hashtbl.create 8 in
  List.iteri
    (fun i (s : Service.t) -> Hashtbl.replace svc_ids s.id i)
    diagram.Diagram.services;
  let nservices = List.length diagram.Diagram.services in
  let no_candidates = Bitset.create nservices in
  let rogue = Hashtbl.create 16 in
  List.iter
    (fun ((svc : Service.t), (flow : Flow.t)) ->
      match (flow.src, flow.dst) with
      | Flow.Store store, Flow.Actor actor ->
        let key = (store, actor) in
        let bits =
          match Hashtbl.find_opt rogue key with
          | Some b -> b
          | None ->
            let b = Bitset.create nservices in
            Hashtbl.add rogue key b;
            b
        in
        Bitset.set bits (Hashtbl.find svc_ids svc.id)
      | _ -> ())
    (Diagram.all_flows diagram);
  { lb_u = u; lb_svc_ids = svc_ids; lb_no_candidates = no_candidates;
    lb_rogue = rogue }

let impact_plan lb (a : Action.t) =
  let u = lb.lb_u in
  match a.Action.kind with
  | Action.Collect | Action.Read | Action.Disclose ->
    Imp_actor
      {
        actor = Universe.actor_index u a.actor;
        fields = Array.of_list (List.map (Universe.field_index u) a.fields);
      }
  | Action.Create | Action.Anon ->
    let created =
      match a.kind with
      | Action.Anon -> List.map Field.anon_of a.fields
      | _ -> a.fields
    in
    let store =
      match a.store with
      | Some s -> Universe.store_index u s
      | None -> invalid_arg "transition_impact: create without store"
    in
    Imp_readers
      {
        fields =
          Array.of_list
            (List.map
               (fun f ->
                 let fi = Universe.field_index u f in
                 (fi, Array.of_list (Universe.readers u ~store ~field:fi)))
               created);
      }
  | Action.Delete -> Imp_none

let likelihood_plan lb (a : Action.t) =
  let u = lb.lb_u in
  match (a.Action.kind, a.Action.store) with
  | Action.Read, Some store_id ->
    let store = Universe.store_index u store_id in
    let actor_i = Universe.actor_index u a.actor in
    let lk_accidental =
      match a.provenance with
      | Action.Potential -> Acc_potential
      | Action.From_flow { service; _ } -> (
        match Hashtbl.find_opt lb.lb_svc_ids service with
        | Some i -> Acc_agreed i
        | None -> Acc_by_name service)
    in
    let lk_maintenance = List.mem actor_i (Universe.deleters u ~store) in
    let lk_rogue =
      match a.provenance with
      | Action.From_flow _ -> None
      | Action.Potential ->
        Some
          (Option.value
             (Hashtbl.find_opt lb.lb_rogue (store_id, a.actor))
             ~default:lb.lb_no_candidates)
    in
    Some
      {
        lk_accidental;
        lk_maintenance;
        lk_rogue;
        lk_actor = actor_i;
        lk_store = store;
      }
  | _ -> None

let compile ?(matrix = Risk_matrix.default)
    ?(model = Disclosure_risk.default_likelihood) u lts =
  Mdp_obs.Metrics.span "risk_plan/compile" @@ fun () ->
  let lb = make_labeller u in
  let plans = ref [] and nlabels = ref 0 in
  let by_label = Atbl.create 64 in
  let slot_ids = Hashtbl.create 16 and slot_list = ref [] in
  let new_label (a : Action.t) =
    let l_findable = Action.findable a in
    let l_slot =
      if not l_findable then -1
      else begin
        let key = (a.Action.actor, a.Action.store) in
        match Hashtbl.find_opt slot_ids key with
        | Some i -> i
        | None ->
          let i = Hashtbl.length slot_ids in
          Hashtbl.add slot_ids key i;
          slot_list := key :: !slot_list;
          i
      end
    in
    let l = !nlabels in
    incr nlabels;
    if l_findable then Atbl.replace by_label a l;
    plans :=
      { l_action = a; l_findable; l_slot;
        l_impact = impact_plan lb a; l_likelihood = likelihood_plan lb a }
      :: !plans;
    l
  in
  (* Label ids in first-occurrence order: the LTS's interned ids,
     remapped densely as they are first met in state and row order. *)
  let interned = Option.get (Plts.interned_labels lts) in
  let remap = Array.make (Array.length interned) (-1) in
  let findable_entries = ref 0 in
  for s = 0 to Plts.num_states lts - 1 do
    Plts.iter_successors_lid lts s (fun i _ ->
        if remap.(i) < 0 then remap.(i) <- new_label interned.(i);
        if Action.findable interned.(i) then incr findable_entries)
  done;
  let labels = Array.of_list (List.rev !plans) in
  let findable_label l = labels.(l).l_findable in
  Mdp_obs.Metrics.add "risk_plan/labels" (Array.length labels);
  Mdp_obs.Metrics.add "risk_plan/entries" (Plts.num_transitions lts);
  {
    u;
    lts;
    matrix;
    model;
    labels;
    by_label;
    remap;
    findable_entries = !findable_entries;
    findable_labels =
      Array.of_seq
        (Seq.filter findable_label (Seq.init (Array.length labels) Fun.id));
    slots = Array.of_list (List.rev !slot_list);
    tree = Plts.witness_tree lts;
  }

(* ----- per-profile view ----- *)

(* The profile reduced to dense lookups: σ by field index, allowance by
   actor index, agreement by diagram-service bitset. Extracted once per
   profile (or per equivalence class) and shared by every label. *)
type view = {
  vp_profile : User_profile.t;
  sens : float array;
  allowed : bool array;
  agreed : Bitset.t;
}

let view_in u profile =
  let diagram = Universe.diagram u in
  let nf = Universe.nfields u in
  let sens =
    Array.init nf (fun i ->
        User_profile.sensitivity profile (Universe.field_at u i))
  in
  let allowed_names = User_profile.allowed_actors profile diagram in
  let allowed =
    Array.init (Universe.nactors u) (fun a ->
        List.mem (Universe.actor_name u a) allowed_names)
  in
  let services = diagram.Diagram.services in
  let agreed = Bitset.create (List.length services) in
  List.iteri
    (fun i (s : Service.t) ->
      if User_profile.agrees_to profile s.id then Bitset.set agreed i)
    services;
  { vp_profile = profile; sens; allowed; agreed }

let view t profile = view_in t.u profile
let labeller_view lb profile = view_in lb.lb_u profile

let eval_impact view = function
  | Imp_none -> 0.0
  | Imp_actor { actor; fields } ->
    (* σ is 0 for an allowed actor regardless of sensitivities
       ([User_profile.sigma]); the fold mirrors [Listx.max_byf]. *)
    if view.allowed.(actor) then 0.0
    else
      Array.fold_left
        (fun acc f -> Float.max acc view.sens.(f))
        0.0 fields
  | Imp_readers { fields } ->
    Array.fold_left
      (fun acc (f, readers) ->
        if Array.exists (fun a -> not view.allowed.(a)) readers then
          Float.max acc view.sens.(f)
        else acc)
      0.0 fields

let accidental_term model view = function
  | Acc_potential -> model.Disclosure_risk.accidental_access
  | Acc_agreed i ->
    if Bitset.get view.agreed i then 0.0
    else model.Disclosure_risk.rogue_service
  | Acc_by_name service ->
    if User_profile.agrees_to view.vp_profile service then 0.0
    else model.Disclosure_risk.rogue_service

let rogue_term model view = function
  | None -> 0.0
  | Some candidates ->
    if Bitset.subset candidates view.agreed then 0.0
    else model.Disclosure_risk.rogue_service

let eval_likelihood model view = function
  | None -> 0.0
  | Some lk ->
    let accidental = accidental_term model view lk.lk_accidental in
    let maintenance =
      if lk.lk_maintenance then model.Disclosure_risk.maintenance_exposure
      else 0.0
    in
    let rogue = rogue_term model view lk.lk_rogue in
    (* Shared combination point: float-identical to the naive path. *)
    Disclosure_risk.combine_scenarios ~accidental ~maintenance ~rogue

(* The finding level of a label with these plans under [view]; impact =
   0 or likelihood = 0 categorise to [None_], which can never yield a
   finding — skip the table lookups. *)
let plan_level ~matrix ~model view impact likelihood =
  let impact = eval_impact view impact in
  if impact <= 0.0 then Level.None_
  else begin
    let likelihood = eval_likelihood model view likelihood in
    if likelihood <= 0.0 then Level.None_
    else
      let il = Risk_matrix.impact_level matrix impact in
      let ll = Risk_matrix.likelihood_level matrix likelihood in
      Risk_matrix.level matrix ~impact:il ~likelihood:ll
  end

let label_level lb ~matrix ~model view (a : Action.t) =
  plan_level ~matrix ~model view (impact_plan lb a) (likelihood_plan lb a)

(* ----- per-label levels ----- *)

(* The one per-label loop: every distinct findable label with its
   finding level under [view]. The population summary, the what-if
   base table and its Delta re-levels all fold through it. *)
let iter_levels t view f =
  Array.iter
    (fun l ->
      let lp = t.labels.(l) in
      f lp
        (plan_level ~matrix:t.matrix ~model:t.model view lp.l_impact
           lp.l_likelihood))
    t.findable_labels

let iter_findable t view f =
  iter_levels t view (fun lp level -> f lp.l_action level)

type summary = { worst : Level.t; slot_levels : Level.t array }

let summary t profile =
  let worst = ref Level.None_ in
  let slot_levels = Array.make (Array.length t.slots) Level.None_ in
  iter_levels t (view t profile) (fun lp level ->
      worst := Level.max !worst level;
      slot_levels.(lp.l_slot) <- Level.max slot_levels.(lp.l_slot) level);
  { worst = !worst; slot_levels }

(* ----- full report (bit-compatible with Disclosure_risk.analyse) ----- *)

(* Every state's trail, each hop the annotated action of its label: one
   ascending pass over the witness tree, since a parent's id is below
   its child's, so its trail is already built. *)
let trails t (per_label : Disclosure_risk.finding array) =
  let parent, via = t.tree in
  let trails = Array.make (Array.length parent) Disclosure_risk.Start in
  Array.iteri
    (fun s p ->
      if p >= 0 then
        trails.(s) <-
          Disclosure_risk.Hop (trails.(p), per_label.(t.remap.(via.(s))).action))
    parent;
  trails

(* Per label: the finding its transitions get when reported, with the
   annotated action. Every finding, witness hop and {!annotate} lookup
   of one label shares these values. *)
let per_label t view =
  Array.map
    (fun lp ->
      let impact = eval_impact view lp.l_impact in
      let likelihood = eval_likelihood t.model view lp.l_likelihood in
      let action =
        if lp.l_findable then
          Action.with_risk lp.l_action
            (Risk_matrix.assess t.matrix ~impact ~likelihood)
        else lp.l_action
      in
      let impact_level = Risk_matrix.impact_level t.matrix impact in
      let likelihood_level = Risk_matrix.likelihood_level t.matrix likelihood in
      let level =
        Risk_matrix.level t.matrix ~impact:impact_level
          ~likelihood:likelihood_level
      in
      { Disclosure_risk.src = -1; dst = -1; action; impact; likelihood;
        impact_level; likelihood_level; level; trail = Start })
    t.labels

let annotate t profile =
  let per_label = per_label t (view t profile) in
  fun label ->
    match Atbl.find_opt t.by_label label with
    | Some l -> per_label.(l).Disclosure_risk.action
    | None -> label

let analyse t profile =
  let per_label = per_label t (view t profile) in
  let reported (f : Disclosure_risk.finding) =
    match f.action.Action.kind with
    | Action.Read ->
      Action.findable f.action && Level.compare f.level Level.None_ > 0
    | Action.Collect | Action.Create | Action.Disclose | Action.Anon ->
      f.impact > 0.0
    | Action.Delete -> false
  in
  let trails = trails t per_label in
  let findings = ref [] in
  let exposures = ref [] in
  for src = 0 to Plts.num_states t.lts - 1 do
    Plts.iter_successors_lid t.lts src (fun i dst ->
        let f = per_label.(t.remap.(i)) in
        if reported f then begin
          let f = { f with src; dst; trail = trails.(src) } in
          if f.action.Action.kind = Action.Read then findings := f :: !findings
          else exposures := f :: !exposures
        end)
  done;
  let by_severity (a : Disclosure_risk.finding) (b : Disclosure_risk.finding) =
    match Level.compare b.level a.level with
    | 0 -> Float.compare b.impact a.impact
    | c -> c
  in
  {
    Disclosure_risk.non_allowed =
      User_profile.non_allowed_actors profile (Universe.diagram t.u);
    findings = List.sort by_severity !findings;
    exposures = List.sort by_severity !exposures;
  }
