open Mdp_dataflow
open Mdp_policy

(* Typed model edits (the §IV-A design loop's vocabulary) and the
   invalidation analysis behind [Analysis.run_incremental]: given what
   an edit concretely changed, decide which artifacts of the previous
   run — LTS, compiled risk plan, per-profile evaluation, population
   classes, pseudonym pass, consistency gaps — must be recomputed and
   which can be reused byte-for-byte. *)

type t =
  | Grant of Acl.entry
  | Revoke of {
      subject : Acl.subject;
      store : string;
      fields : Field.t list option;
      perms : Permission.t list;
    }
  | Add_flow of { service : string; flow : Flow.t }
  | Remove_flow of { service : string; order : int }
  | Set_sensitivity of Field.t * float
  | Set_agreement of { service : string; agreed : bool }
  | Set_bindings of Pseudonym_risk.binding list

type inputs = {
  diagram : Diagram.t;
  policy : Policy.t;
  profile : User_profile.t option;
  bindings : Pseudonym_risk.binding list;
}

(* ----- application ----- *)

let replace_service diagram id f =
  match Diagram.find_service diagram id with
  | None -> Error (Printf.sprintf "unknown service %s" id)
  | Some svc -> (
    match f svc with
    | Error _ as e -> e
    | Ok flows -> (
      match
        (* [Service.make]/[Diagram.make] re-validate the edited model the
           same way the original was validated. *)
        try
          let svc' = Service.make ~id ~flows in
          let services =
            List.map
              (fun (s : Service.t) -> if s.id = id then svc' else s)
              diagram.Diagram.services
          in
          Diagram.make ~actors:diagram.Diagram.actors
            ~datastores:diagram.Diagram.datastores ~services
        with Invalid_argument msg -> Error [ msg ]
      with
      | Ok d -> Ok d
      | Error msgs -> Error (String.concat "; " msgs)))

let has_field diagram f =
  List.exists (Field.equal f) (Diagram.all_fields diagram)

let apply inputs edit =
  match edit with
  | Grant entry -> (
    let policy = Policy.grant inputs.policy entry in
    match Policy.validate policy inputs.diagram with
    | Ok () -> Ok { inputs with policy }
    | Error msgs -> Error (String.concat "; " msgs))
  | Revoke { subject; store; fields; perms } -> (
    let policy =
      Policy.revoke inputs.policy ~subject ~store ?fields perms
    in
    match Policy.validate policy inputs.diagram with
    | Ok () -> Ok { inputs with policy }
    | Error msgs -> Error (String.concat "; " msgs))
  | Add_flow { service; flow } -> (
    match
      replace_service inputs.diagram service (fun svc ->
          Ok (svc.Service.flows @ [ flow ]))
    with
    | Ok diagram -> Ok { inputs with diagram }
    | Error _ as e -> e)
  | Remove_flow { service; order } -> (
    match
      replace_service inputs.diagram service (fun svc ->
          if List.exists (fun (f : Flow.t) -> f.order = order) svc.flows
          then
            Ok
              (List.filter
                 (fun (f : Flow.t) -> f.order <> order)
                 svc.flows)
          else
            Error
              (Printf.sprintf "service %s has no flow with order %d"
                 service order))
    with
    | Ok diagram -> Ok { inputs with diagram }
    | Error _ as e -> e)
  | Set_sensitivity (field, v) -> (
    match inputs.profile with
    | None -> Error "no user profile to edit"
    | Some _ when not (has_field inputs.diagram field) ->
      Error (Printf.sprintf "unknown field %s" (Field.name field))
    | Some profile -> (
      let sens = User_profile.sensitivities profile in
      let sens =
        if List.exists (fun (f, _) -> Field.equal f field) sens then
          List.map
            (fun (f, s) -> if Field.equal f field then (f, v) else (f, s))
            sens
        else sens @ [ (field, v) ]
      in
      try
        let profile =
          User_profile.make ~sensitivities:sens
            ~agreed_services:(User_profile.agreed_services profile)
            ()
        in
        Ok { inputs with profile = Some profile }
      with Invalid_argument msg -> Error msg))
  | Set_agreement { service; agreed } -> (
    match inputs.profile with
    | None -> Error "no user profile to edit"
    | Some profile ->
      let services = User_profile.agreed_services profile in
      let already = List.mem service services in
      if already = agreed then Ok inputs (* vacuous *)
      else
        let services =
          if agreed then services @ [ service ]
          else List.filter (fun s -> s <> service) services
        in
        let profile =
          User_profile.make
            ~sensitivities:(User_profile.sensitivities profile)
            ~agreed_services:services ()
        in
        Ok { inputs with profile = Some profile })
  | Set_bindings bindings -> Ok { inputs with bindings }

let apply_all inputs edits =
  List.fold_left
    (fun acc edit ->
      match acc with Error _ as e -> e | Ok i -> apply i edit)
    (Ok inputs) edits

(* ----- invalidation analysis ----- *)

type invalidation = {
  inv_lts : bool;
  inv_cone : bool;
      (* inv_lts is set solely by concrete ACL tuples on an unchanged
         diagram with no binding interplay: the LTS damage is scoped to
         the touched stores' reachability cones, and a cone-scoped
         re-exploration ([Regen]) may answer the edit without a cold
         run. Candidacy only — [Regen.make_patch] makes the final call
         (it must compare compiled guards). *)
  inv_plan : bool;
  inv_risk : bool;
  inv_classes : bool;
  inv_sigma : (Field.t * float) list option;
      (* [Some changes] when the profile edit is a pure sensitivity
         delta (same agreed services): the fields whose σ changed, with
         their new values. Population aggregation can then re-evaluate
         only the equivalence classes whose σ actually moves instead of
         all of them. [None]: profile unchanged or not a pure σ
         delta. *)
  inv_pseudonym : bool;
  inv_consistency : bool;
}

let nothing =
  {
    inv_lts = false;
    inv_cone = false;
    inv_plan = false;
    inv_risk = false;
    inv_classes = false;
    inv_sigma = None;
    inv_pseudonym = false;
    inv_consistency = false;
  }

let everything =
  {
    inv_lts = true;
    inv_cone = false;
    inv_plan = true;
    inv_risk = true;
    inv_classes = true;
    inv_sigma = None;
    inv_pseudonym = true;
    inv_consistency = true;
  }

(* Fields that can ever reach [store]'s contents: the created (stored)
   fields of the active create/anon flows into it, filtered by the
   writers' Write permission when enforcement is on. Exploration reads —
   from-flow, potential, granular — all fetch from store contents, so a
   Read grant on a field outside this set is invisible to the LTS. *)
let writable_fields ~(options : Generate.options) diagram policy store =
  let active (svc : Service.t) =
    match options.services with
    | None -> true
    | Some ids -> List.mem svc.id ids
  in
  List.concat_map
    (fun ((svc : Service.t), (flow : Flow.t)) ->
      if not (active svc) then []
      else
        match (Diagram.classify diagram flow, flow.dst) with
        | (Flow.Create | Flow.Anon), Flow.Store s when s = store ->
          let actor = Flow.node_name flow.src in
          let created =
            match Diagram.classify diagram flow with
            | Flow.Anon -> List.map Field.anon_of flow.fields
            | _ -> flow.fields
          in
          if options.enforce_policy then
            List.filter
              (fun f ->
                Policy.allows policy ~diagram ~actor Permission.Write
                  ~store f)
              created
          else created
        | _ -> [])
    (Diagram.all_flows diagram)

(* Store-level deleter sets — the only §III-A consumer of Delete
   permissions when potential deletes are off. *)
let deleter_sets diagram policy =
  List.map
    (fun (ds : Datastore.t) ->
      let fields = Diagram.all_fields diagram in
      List.filter_map
        (fun (a : Actor.t) ->
          if
            List.exists
              (fun f ->
                Policy.allows policy ~diagram ~actor:a.id
                  Permission.Delete ~store:ds.id f)
              fields
          then Some a.id
          else None)
        diagram.Diagram.actors)
    diagram.Diagram.datastores

(* The pure-sensitivity delta of a profile edit: the fields whose σ
   changed, with their new values — [None] when the agreed-service sets
   differ (allowance and likelihood scenarios move, not just σ). *)
let sigma_delta a b =
  match (a, b) with
  | Some a, Some b
    when User_profile.agreed_services a = User_profile.agreed_services b ->
    let fields =
      List.sort_uniq Field.compare
        (List.map fst (User_profile.sensitivities a)
        @ List.map fst (User_profile.sensitivities b))
    in
    Some
      (List.filter_map
         (fun f ->
           let va = User_profile.sensitivity a f
           and vb = User_profile.sensitivity b f in
           if va <> vb then Some (f, vb) else None)
         fields)
  | _ -> None

let profile_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    User_profile.agreed_services a = User_profile.agreed_services b
    && List.length (User_profile.sensitivities a)
       = List.length (User_profile.sensitivities b)
    && List.for_all2
         (fun (fa, sa) (fb, sb) -> Field.equal fa fb && sa = sb)
         (User_profile.sensitivities a)
         (User_profile.sensitivities b)
  | _ -> false

let classify ~(options : Generate.options) ~before ~after =
  if before.diagram != after.diagram then everything
  else begin
    let removed, added =
      if before.policy == after.policy then ([], [])
      else Policy.diff ~before:before.policy ~after:after.policy
          before.diagram
    in
    let tuples = removed @ added in
    let bindings_changed = before.bindings != after.bindings in
    (* The pseudonym pass reads Read permissions ([readable_anywhere]);
       any concrete policy change under active bindings forces a full
       re-run, and the pass grows the LTS — so the LTS itself cannot be
       reused either. Likewise, changing a non-empty binding set: the
       previous pass already grew the LTS and appends cannot be undone. *)
    if
      (tuples <> [] && after.bindings <> [])
      || (bindings_changed && before.bindings <> [])
    then everything
    else begin
      let writable = Hashtbl.create 4 in
      let writable_in policy store f =
        let key = (store, options.enforce_policy, policy == after.policy) in
        let fields =
          match Hashtbl.find_opt writable key with
          | Some fs -> fs
          | None ->
            let fs =
              writable_fields ~options before.diagram policy store
            in
            Hashtbl.add writable key fs;
            fs
        in
        List.exists (Field.equal f) fields
      in
      let lts_preserving (t : Policy.grant_tuple) =
        match t.perm with
        | Permission.Delete -> not options.potential_deletes
        | Permission.Write ->
          (not options.enforce_policy)
          || not
               (List.exists
                  (fun ((svc : Service.t), (flow : Flow.t)) ->
                    (match options.services with
                    | None -> true
                    | Some ids -> List.mem svc.id ids)
                    &&
                    match (Diagram.classify before.diagram flow, flow.dst)
                    with
                    | (Flow.Create | Flow.Anon), Flow.Store s ->
                      s = t.store
                      && Flow.node_name flow.src = t.actor
                      && List.exists (Field.equal t.field)
                           (match
                              Diagram.classify before.diagram flow
                            with
                           | Flow.Anon ->
                             List.map Field.anon_of flow.fields
                           | _ -> flow.fields)
                    | _ -> false)
                  (Diagram.all_flows before.diagram))
        | Permission.Read ->
          (* Sound for both removals and additions: the field can reach
             the store's contents under neither policy. *)
          (not (writable_in before.policy t.store t.field))
          && not (writable_in after.policy t.store t.field)
      in
      let profile_changed = not (profile_equal before.profile after.profile) in
      let inv_sigma =
        if profile_changed then sigma_delta before.profile after.profile
        else None
      in
      if not (List.for_all lts_preserving tuples) then
        (* The LTS must change, but only because of concrete ACL tuples
           on an unchanged diagram with no binding interplay — the
           damage is confined to the touched stores' cones. Everything
           downstream still invalidates (the cone path recompiles plan
           and report over the rebuilt fragment); [inv_cone] flags that
           the rebuild need not be cold. *)
        { everything with inv_cone = true; inv_sigma }
      else begin
        let has perm =
          List.exists
            (fun (t : Policy.grant_tuple) -> Permission.equal t.perm perm)
            tuples
        in
        let deleters_changed =
          has Permission.Delete
          && deleter_sets before.diagram before.policy
             <> deleter_sets before.diagram after.policy
        in
        {
          inv_lts = false;
          inv_cone = false;
          inv_plan = deleters_changed;
          inv_risk = deleters_changed || profile_changed;
          inv_classes = false;
          inv_sigma;
          inv_pseudonym = bindings_changed;
          (* Gaps query only Read and Write over flow fields. *)
          inv_consistency = has Permission.Read || has Permission.Write;
        }
      end
    end
  end

(* ----- parsing and printing (CLI --edit specs, serve requests) -----

   The spec syntax is positional with ':' separators and ','/'='/'>'
   sub-separators, so identifiers containing any of those (or
   whitespace, or a double quote, or nothing at all) are double-quoted
   on output, with backslash escapes for '"' and '\'. The parser splits
   outside quoted runs and unquotes each token, so [parse (to_string e)
   = Ok e] for every printable edit (checked by a qcheck property). *)

let needs_quoting s =
  s = ""
  || String.exists
       (function
         | ':' | ',' | '=' | '>' | '"' | '\\' | ' ' | '\t' | '\n' | '\r' ->
           true
         | _ -> false)
       s

let quote_force s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let quote_tok s = if needs_quoting s then quote_force s else s

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Split on [sep] outside double-quoted runs (backslash escapes the
   next character inside quotes); [None] on an unterminated quote. *)
let split_quoted sep s =
  let parts = ref [] and b = Buffer.create 16 in
  let n = String.length s in
  let i = ref 0 and in_q = ref false in
  while !i < n do
    let c = s.[!i] in
    if !in_q then
      if c = '\\' && !i + 1 < n then begin
        Buffer.add_char b c;
        incr i;
        Buffer.add_char b s.[!i]
      end
      else begin
        if c = '"' then in_q := false;
        Buffer.add_char b c
      end
    else if c = sep then begin
      parts := Buffer.contents b :: !parts;
      Buffer.clear b
    end
    else begin
      if c = '"' then in_q := true;
      Buffer.add_char b c
    end;
    incr i
  done;
  if !in_q then None else Some (List.rev (Buffer.contents b :: !parts))

(* Undo [quote_tok]: a token starting with '"' must be one fully quoted
   run; anything else is literal (and must not contain a stray quote). *)
let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then begin
    let b = Buffer.create n in
    let i = ref 1 and ok = ref true in
    while !i < n - 1 do
      (match s.[!i] with
      | '\\' when !i + 1 < n - 1 ->
        incr i;
        Buffer.add_char b s.[!i]
      | '"' -> ok := false
      | c -> Buffer.add_char b c);
      incr i
    done;
    if !ok then Some (Buffer.contents b) else None
  end
  else if String.contains s '"' then None
  else Some s

let pp_subject_string = function
  | Acl.Actor_subject a ->
    (* an actor literally named "role.X" must not re-parse as a role *)
    if has_prefix "role." a then quote_force a else quote_tok a
  | Acl.Role_subject r -> "role." ^ quote_tok r

let node_spec_string = function
  | Flow.User -> "user"
  | Flow.Actor a -> "actor." ^ quote_tok a
  | Flow.Store s -> "store." ^ quote_tok s

let fields_string fs = String.concat "," (List.map (fun f -> quote_tok (Field.name f)) fs)

let pp ppf = function
  | Grant { effect_ = Acl.Allow; subject; store; selector; perms } ->
    Format.fprintf ppf "grant:%s:%s:%s%s" (pp_subject_string subject)
      (String.concat "," (List.map Permission.to_string perms))
      (quote_tok store)
      (match selector with
      | Acl.All_fields -> ""
      | Acl.Fields fs -> ":" ^ fields_string fs)
  | Grant _ -> Format.pp_print_string ppf "grant:<deny-entry>"
  | Revoke { subject; store; fields; perms } ->
    Format.fprintf ppf "revoke:%s:%s:%s%s" (pp_subject_string subject)
      (String.concat "," (List.map Permission.to_string perms))
      (quote_tok store)
      (match fields with
      | None -> ""
      | Some fs -> ":" ^ fields_string fs)
  | Add_flow { service; flow } ->
    Format.fprintf ppf "flow+:%s:%d:%s>%s:%s:%s" (quote_tok service)
      flow.Flow.order
      (node_spec_string flow.src)
      (node_spec_string flow.dst)
      (fields_string flow.fields)
      (quote_tok flow.purpose)
  | Remove_flow { service; order } ->
    Format.fprintf ppf "flow-:%s:%d" (quote_tok service) order
  | Set_sensitivity (f, v) ->
    Format.fprintf ppf "sensitivity:%s=%.17g" (quote_tok (Field.name f)) v
  | Set_agreement { service; agreed } ->
    Format.fprintf ppf "agree:%c%s"
      (if agreed then '+' else '-')
      (quote_tok service)
  | Set_bindings bs ->
    Format.fprintf ppf "bindings:<%d binding(s)>" (List.length bs)

let to_string t = Format.asprintf "%a" pp t

let parse_subject s =
  if has_prefix "role." s then
    Option.map
      (fun r -> Acl.Role_subject r)
      (unquote (String.sub s 5 (String.length s - 5)))
  else Option.map (fun a -> Acl.Actor_subject a) (unquote s)

let parse_perms s =
  let parts = String.split_on_char ',' s in
  let perms = List.filter_map Permission.of_string parts in
  if List.length perms = List.length parts && perms <> [] then Some perms
  else None

(* [Field.of_name] so a printed ["F~anon"] re-parses as the anon
   variant; [None] on a name [Field.make] rejects (empty, whitespace). *)
let parse_field s =
  match unquote s with
  | None -> None
  | Some name -> (
    match Field.of_name name with
    | f -> Some f
    | exception Invalid_argument _ -> None)

let parse_fields s =
  match split_quoted ',' s with
  | None -> None
  | Some parts ->
    let fields = List.filter_map parse_field parts in
    if List.length fields = List.length parts then Some fields else None

let parse_node s =
  let sub p = unquote (String.sub s (String.length p) (String.length s - String.length p)) in
  let bad () =
    Error
      (Printf.sprintf "bad node %S (expected user, actor.NAME or store.NAME)"
         s)
  in
  if s = "user" then Ok Flow.User
  else if has_prefix "actor." s then
    match sub "actor." with Some a -> Ok (Flow.Actor a) | None -> bad ()
  else if has_prefix "store." s then
    match sub "store." with Some st -> Ok (Flow.Store st) | None -> bad ()
  else bad ()

let parse spec =
  let err () =
    Error
      (Printf.sprintf
         "bad edit %S (expected grant:SUBJ:PERMS:STORE[:FIELDS], \
          revoke:SUBJ:PERMS:STORE[:FIELDS], flow-:SERVICE:ORDER, \
          flow+:SERVICE:ORDER:SRC>DST:FIELDS[:PURPOSE], \
          sensitivity:FIELD=V or agree:{+,-}SERVICE)"
         spec)
  in
  let ( let* ) o f = match o with Some v -> f v | None -> err () in
  match split_quoted ':' spec with
  | None -> err ()
  | Some parts -> (
    match parts with
    | [ "grant"; subj; perms; store ] | [ "grant"; subj; perms; store; "" ]
      ->
      let* perms = parse_perms perms in
      let* subject = parse_subject subj in
      let* store = unquote store in
      Ok (Grant (Acl.allow subject ~store perms))
    | [ "grant"; subj; perms; store; fields ] ->
      let* perms = parse_perms perms in
      let* subject = parse_subject subj in
      let* store = unquote store in
      let* fields = parse_fields fields in
      Ok (Grant (Acl.allow subject ~store ~fields perms))
    | [ "revoke"; subj; perms; store ] ->
      let* perms = parse_perms perms in
      let* subject = parse_subject subj in
      let* store = unquote store in
      Ok (Revoke { subject; store; fields = None; perms })
    | [ "revoke"; subj; perms; store; fields ] ->
      let* perms = parse_perms perms in
      let* subject = parse_subject subj in
      let* store = unquote store in
      let* fields = parse_fields fields in
      Ok (Revoke { subject; store; fields = Some fields; perms })
    | [ "flow-"; service; order ] ->
      let* order = int_of_string_opt order in
      let* service = unquote service in
      Ok (Remove_flow { service; order })
    | "flow+" :: service :: order :: endpoints :: fields :: rest -> (
      let* purpose =
        match rest with
        | [] -> Some "whatif"
        | [ p ] -> unquote p
        | _ -> None
      in
      let* order = int_of_string_opt order in
      let* service = unquote service in
      let* fields = parse_fields fields in
      let* nodes =
        match split_quoted '>' endpoints with
        | Some [ src; dst ] -> Some (src, dst)
        | _ -> None
      in
      let src_s, dst_s = nodes in
      match (parse_node src_s, parse_node dst_s) with
      | Ok src, Ok dst -> (
        try
          Ok
            (Add_flow
               { service; flow = Flow.make ~order ~src ~dst ~fields ~purpose })
        with Invalid_argument msg -> Error msg)
      | Error e, _ | _, Error e -> Error e)
    | [ "sensitivity"; assign ] -> (
      match split_quoted '=' assign with
      | Some [ f; v ] -> (
        let* f = parse_field f in
        match float_of_string_opt v with
        | Some v when v >= 0.0 && v <= 1.0 -> Ok (Set_sensitivity (f, v))
        | _ -> err ())
      | _ -> err ())
    | [ "agree"; svc ] when String.length svc > 1 -> (
      let service_s = String.sub svc 1 (String.length svc - 1) in
      let* service = unquote service_s in
      match svc.[0] with
      | '+' -> Ok (Set_agreement { service; agreed = true })
      | '-' -> Ok (Set_agreement { service; agreed = false })
      | _ -> err ())
    | _ -> err ())

let parse_all specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match parse s with
      | Ok e -> go (e :: acc) rest
      | Error _ as e -> e)
  in
  go [] specs

(* ----- batch canonicalisation (serve result-cache keys) ----- *)

(* Two edits commute when applying them in either order yields the same
   [inputs] (including the same success/failure outcome). ACL edits
   always commute: deny-overrides makes [Policy.allows] a set query over
   the entry list, and validation only reads the (unchanged) diagram.
   Flow edits commute across services; profile edits across targets.
   ACL and flow edits do NOT commute — [Policy.validate] reads the
   diagram's field and store sets, which a flow edit changes. *)
let commutes a b =
  let cat = function
    | Grant _ | Revoke _ -> `Acl
    | Add_flow _ | Remove_flow _ -> `Flow
    | Set_sensitivity _ | Set_agreement _ | Set_bindings _ -> `Profile
  in
  match (cat a, cat b) with
  | `Acl, `Acl -> true
  | `Flow, `Flow -> (
    match (a, b) with
    | ( (Add_flow { service = sa; _ } | Remove_flow { service = sa; _ }),
        (Add_flow { service = sb; _ } | Remove_flow { service = sb; _ }) ) ->
      sa <> sb
    | _ -> false)
  | `Acl, `Flow | `Flow, `Acl -> false
  | `Profile, `Profile -> (
    match (a, b) with
    | Set_sensitivity (fa, _), Set_sensitivity (fb, _) ->
      not (Field.equal fa fb)
    | Set_agreement { service = sa; _ }, Set_agreement { service = sb; _ } ->
      sa <> sb
    | Set_sensitivity _, Set_agreement _ | Set_agreement _, Set_sensitivity _
      ->
      true
    | _ -> false)
  | `Profile, (`Acl | `Flow) | (`Acl | `Flow), `Profile -> true

(* [overwrites later earlier]: the later edit wholly replaces the
   earlier one's effect and nothing between them observes the profile,
   so the earlier edit is dead in any batch where both appear. *)
let overwrites later earlier =
  match (later, earlier) with
  | Set_bindings _, Set_bindings _ -> true
  | Set_sensitivity (fa, _), Set_sensitivity (fb, _) -> Field.equal fa fb
  | Set_agreement { service = sa; _ }, Set_agreement { service = sb; _ } ->
    sa = sb
  | _ -> false

let canonical_batch edits =
  (* drop profile edits shadowed by a later edit on the same target *)
  let rec dedup = function
    | [] -> []
    | e :: rest ->
      let shadowed = List.exists (fun later -> overwrites later e) rest in
      let rest = dedup rest in
      if shadowed then rest else e :: rest
  in
  let edits = dedup edits in
  (* sort by printed form, swapping only adjacent commuting pairs: each
     swap removes exactly one inversion, so this terminates at a batch
     canonical among all equivalent reorderings reachable this way *)
  let arr = Array.of_list edits in
  let n = Array.length arr in
  let swapped = ref (n > 1) in
  while !swapped do
    swapped := false;
    for i = 0 to n - 2 do
      if
        commutes arr.(i) arr.(i + 1)
        && String.compare (to_string arr.(i)) (to_string arr.(i + 1)) > 0
      then begin
        let t = arr.(i) in
        arr.(i) <- arr.(i + 1);
        arr.(i + 1) <- t;
        swapped := true
      end
    done
  done;
  (* adjacent structurally equal ACL edits are idempotent *)
  let rec squash = function
    | a :: b :: rest
      when (match a with Grant _ | Revoke _ -> true | _ -> false) && a = b
      ->
      squash (b :: rest)
    | a :: rest -> a :: squash rest
    | [] -> []
  in
  squash (Array.to_list arr)
