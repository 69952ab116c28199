open Mdp_anon

type criteria = {
  k : int;
  l : int option;
  t : float option;
  max_violation_ratio : float option;
  value_policy : Value_risk.policy option;
  max_mean_drift : float option;
}

let default ~k =
  {
    k;
    l = None;
    t = None;
    max_violation_ratio = None;
    value_policy = None;
    max_mean_drift = None;
  }

type verdict = { accepted : bool; failures : string list }

let sensitive_names ds =
  List.filter_map
    (fun (a : Attribute.t) -> if Attribute.is_sensitive a then Some a.name else None)
    (Dataset.attrs ds)

let evaluate ~original ~release criteria =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if not (Kanonymity.is_k_anonymous ~k:criteria.k release) then
    fail "not %d-anonymous (min class size %d)" criteria.k
      (Kanonymity.min_class_size release);
  let sensitive = sensitive_names release in
  Option.iter
    (fun l ->
      List.iter
        (fun attr ->
          let actual = Ldiv.distinct release ~sensitive:attr in
          if actual < l then
            fail "%s: distinct l-diversity %d below %d" attr actual l)
        sensitive)
    criteria.l;
  Option.iter
    (fun t ->
      List.iter
        (fun attr ->
          if not (Tcloseness.is_t_close ~t release ~sensitive:attr) then
            fail "%s: not %.2f-close" attr t)
        sensitive)
    criteria.t;
  (match (criteria.max_violation_ratio, criteria.value_policy) with
  | Some ratio, Some policy ->
    let n = Dataset.nrows release in
    if n > 0 then
      List.iter
        (fun (report : Value_risk.report) ->
          let r = float_of_int report.violations /. float_of_int n in
          if r > ratio then
            fail
              "value risk: %d/%d violations (%.0f%%) when {%s} is read \
               exceeds %.0f%%"
              report.violations n (100.0 *. r)
              (String.concat ", " report.fields_read)
              (100.0 *. ratio))
        (Columnar.value_risk_sweep (Columnar.compile release) policy)
  | Some _, None ->
    fail "criteria list a violation ratio but no value policy"
  | None, _ -> ());
  Option.iter
    (fun max_drift ->
      List.iter
        (fun attr ->
          match Utility.mean_drift ~original ~release attr with
          | Some d when d > max_drift ->
            fail "%s: mean drift %.2f exceeds %.2f" attr d max_drift
          | Some _ | None -> ())
        sensitive)
    criteria.max_mean_drift;
  let failures = List.rev !failures in
  { accepted = failures = []; failures }

let pp_verdict ppf v =
  if v.accepted then Format.pp_print_string ppf "release accepted"
  else
    Format.fprintf ppf "@[<v>release REJECTED:@,%a@]"
      (Format.pp_print_list
         ~pp_sep:Format.pp_print_cut
         (fun ppf m -> Format.fprintf ppf "  - %s" m))
      v.failures
