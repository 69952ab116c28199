open Mdp_dataflow
open Mdp_prelude

type binding = {
  store : string;
  dataset : Mdp_anon.Dataset.t;
  attr_fields : (string * Field.t) list;
  policy : Mdp_anon.Value_risk.policy;
}

let make_binding ~store ~dataset ~attr_fields ~policy =
  let attr_names =
    List.map (fun (a : Mdp_anon.Attribute.t) -> a.name) (Mdp_anon.Dataset.attrs dataset)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem name attr_names) then
        invalid_arg
          (Printf.sprintf "Pseudonym_risk: attribute %s not in dataset" name))
    attr_fields;
  if not (List.mem_assoc policy.Mdp_anon.Value_risk.sensitive attr_fields) then
    invalid_arg "Pseudonym_risk: sensitive attribute unbound";
  let quasi =
    List.filter Mdp_anon.Attribute.is_quasi (Mdp_anon.Dataset.attrs dataset)
  in
  List.iter
    (fun (a : Mdp_anon.Attribute.t) ->
      if not (List.mem_assoc a.name attr_fields) then
        invalid_arg
          (Printf.sprintf "Pseudonym_risk: quasi attribute %s unbound" a.name))
    quasi;
  (match Mdp_anon.Value_risk.check_policy policy with
  | Ok () -> ()
  | Error e -> invalid_arg ("Pseudonym_risk: " ^ e));
  { store; dataset; attr_fields; policy }

type risk_transition = {
  src : Plts.state_id;
  dst : Plts.state_id;
  actor : string;
  field : Field.t;
  fields_read : Field.t list;
  report : Mdp_anon.Value_risk.report;
}

(* "May the actor read this field from *some* datastore?" — the access
   question of §III-B — is store-independent: any read route to the raw
   field removes the inference risk (it is then a plain disclosure
   risk). It is answered below by the universe's precompiled access
   matrix ([Universe.readable_anywhere], the union of the per-store
   permission bitsets) instead of scanning reader lists per
   (state, actor). *)

(* One binding's risk-transitions, ordered by source state; [target]
   numbers their destinations. The release is compiled once per call,
   on the calling domain (a [Columnar.t] fills its dictionaries lazily),
   and each distinct set of quasi attributes read is assessed once: the
   transitions reading it share one report. *)
let analyse_binding u lts target binding =
  let diagram = Universe.diagram u in
  ignore (Diagram.find_store diagram binding.store);
  let sensitive_field =
    List.assoc binding.policy.Mdp_anon.Value_risk.sensitive binding.attr_fields
  in
  let quasi_attrs =
    List.filter Mdp_anon.Attribute.is_quasi (Mdp_anon.Dataset.attrs binding.dataset)
    |> List.map (fun (a : Mdp_anon.Attribute.t) -> a.name)
  in
  let sens_anon = Field.anon_of sensitive_field in
  let sens_anon_i =
    try Some (Universe.field_index u sens_anon) with Not_found -> None
  in
  let results = ref [] in
  (match sens_anon_i with
  | None -> () (* the model never pseudonymises the field: no risk states *)
  | Some sens_anon_i ->
    (* State-independent facts, hoisted out of the state sweep. The
       sensitive-field index lookup stays lazy so a model that never
       triggers the risk keeps the original "no such field" behaviour. *)
    let sens_fi = lazy (Universe.field_index u sensitive_field) in
    let eligible =
      (* not (may read raw somewhere) && may read anon somewhere *)
      Array.init (Universe.nactors u) (fun a ->
          lazy
            (let anywhere = Universe.readable_anywhere u ~actor:a in
             (not (Bitset.get anywhere (Lazy.force sens_fi)))
             && Bitset.get anywhere sens_anon_i))
    in
    let plan = lazy (Mdp_anon.Columnar.compile binding.dataset) in
    let reports = Hashtbl.create 8 in
    let report fields_read =
      match Hashtbl.find_opt reports fields_read with
      | Some r -> r
      | None ->
        let r =
          Mdp_anon.Columnar.value_risk_assess (Lazy.force plan) ~fields_read
            binding.policy
        in
        Hashtbl.add reports fields_read r;
        r
    in
    (* Quasi attributes resolved once: (attr, anon field, index). *)
    let quasi_resolved =
      List.filter_map
        (fun attr ->
          let base = List.assoc attr binding.attr_fields in
          let anon = Field.anon_of base in
          match Universe.field_index u anon with
          | exception Not_found -> None
          | fi -> Some (attr, anon, fi))
        quasi_attrs
    in
    for src = 0 to Plts.num_states lts - 1 do
      let cfg : Config.t = Plts.state_data lts src in
      let has a fi =
        Privacy_state.has_i cfg.Config.privacy
          (Universe.var u ~actor:a ~field:fi)
      in
      for a = 0 to Universe.nactors u - 1 do
        (* An actor that already holds the raw field (a flow can hand
           it over) has nothing left to infer. *)
        if
          has a sens_anon_i
          && Lazy.force eligible.(a)
          && not (has a (Lazy.force sens_fi))
        then begin
          (* Quasi anon fields this actor has read at this state. *)
          let fields_read_attrs, fields_read =
            List.split
              (List.filter_map
                 (fun (attr, anon, fi) ->
                   if has a fi then Some (attr, anon) else None)
                 quasi_resolved)
          in
          let report = report fields_read_attrs in
          let dst = target (src, a, Lazy.force sens_fi) in
          results :=
            { src; dst; actor = Universe.actor_name u a;
              field = sensitive_field; fields_read; report }
            :: !results
        end
      done
    done);
  List.sort (fun a b -> Int.compare a.src b.src) !results

(* The inferred read leads to a state past the explored ones where the
   actor has identified the raw field. Flows only ever add has-bits, so
   that state — the source plus one bit the actor may not read — is
   never an explored one: targets are numbered from [num_states], one
   per distinct (source, actor, field) in first-seen order, and
   bindings inferring the same field from the same state share it. *)
let analyse u lts bindings =
  let targets = Hashtbl.create 16 in
  let target key =
    match Hashtbl.find_opt targets key with
    | Some id -> id
    | None ->
      let id = Plts.num_states lts + Hashtbl.length targets in
      Hashtbl.add targets key id;
      id
  in
  List.concat_map (analyse_binding u lts target) bindings

let num_targets transitions =
  List.length (List.sort_uniq Int.compare (List.map (fun t -> t.dst) transitions))

let check ~max_violation_ratio transitions =
  let worst =
    List.fold_left
      (fun acc t ->
        let total = List.length t.report.Mdp_anon.Value_risk.scores in
        if total = 0 then acc
        else
          let ratio =
            float_of_int t.report.Mdp_anon.Value_risk.violations
            /. float_of_int total
          in
          match acc with
          | Some (_, r) when r >= ratio -> acc
          | _ -> Some (t, ratio))
      None transitions
  in
  match worst with
  | Some (t, ratio) when ratio > max_violation_ratio ->
    Error
      (Printf.sprintf
         "pseudonymisation unacceptable: actor %s infers %s with %d/%d \
          violations (%.0f%% > %.0f%% allowed) after reading {%s}"
         t.actor (Field.name t.field) t.report.Mdp_anon.Value_risk.violations
         (List.length t.report.Mdp_anon.Value_risk.scores)
         (100.0 *. ratio)
         (100.0 *. max_violation_ratio)
         (String.concat ", " (List.map Field.name t.fields_read)))
  | Some _ | None -> Ok ()

let pp_risk_transition ppf t =
  Format.fprintf ppf "s%d --read(%s) by %s [inferred, read {%s}]--> s%d: %a"
    t.src (Field.name t.field) t.actor
    (String.concat ", " (List.map Field.name t.fields_read))
    t.dst Mdp_anon.Value_risk.pp_report t.report
