type signature = {
  actor : string;
  store : string option;
  kind : Action.kind;
  fields : string list;
}

type change = { signature : signature; before : Level.t; after : Level.t }

type t = {
  removed : change list;
  added : change list;
  changed : change list;
  unchanged : int;
}

let signature_of_action (a : Action.t) =
  {
    actor = a.Action.actor;
    store = a.Action.store;
    kind = a.Action.kind;
    fields =
      List.sort String.compare (List.map Mdp_dataflow.Field.name a.fields);
  }

let signature_of_finding (f : Disclosure_risk.finding) =
  signature_of_action f.action

(* Worst level per signature: the same access can appear from many LTS
   states; the report's risk for it is the maximum. Listed by last
   occurrence in the report, latest first. *)
let levels_by_signature (report : Disclosure_risk.report) =
  let sigs =
    List.map
      (fun (f : Disclosure_risk.finding) -> (signature_of_finding f, f.level))
      report.findings
  in
  let worst = Hashtbl.create 64 in
  List.iter
    (fun (s, level) ->
      let existing =
        Option.value (Hashtbl.find_opt worst s) ~default:Level.None_
      in
      Hashtbl.replace worst s (Level.max existing level))
    sigs;
  (* walking backwards, a signature's first sighting is its last
     occurrence *)
  List.filter_map
    (fun (s, _) ->
      match Hashtbl.find_opt worst s with
      | Some level ->
        Hashtbl.remove worst s;
        Some (s, level)
      | None -> None)
    (List.rev sigs)

let table pairs =
  let t = Hashtbl.create (List.length pairs) in
  List.iter (fun (s, lvl) -> Hashtbl.replace t s lvl) pairs;
  t

let diff ~before ~after =
  let b = levels_by_signature before and a = levels_by_signature after in
  let bt = table b and at = table a in
  let removed =
    List.filter_map
      (fun (s, lvl) ->
        if Hashtbl.mem at s then None
        else Some { signature = s; before = lvl; after = Level.None_ })
      b
  in
  let added =
    List.filter_map
      (fun (s, lvl) ->
        if Hashtbl.mem bt s then None
        else Some { signature = s; before = Level.None_; after = lvl })
      a
  in
  let changed, unchanged =
    List.fold_left
      (fun (changed, unchanged) (s, before_lvl) ->
        match Hashtbl.find_opt at s with
        | Some after_lvl when not (Level.equal before_lvl after_lvl) ->
          ({ signature = s; before = before_lvl; after = after_lvl } :: changed,
           unchanged)
        | Some _ -> (changed, unchanged + 1)
        | None -> (changed, unchanged))
      ([], 0) b
  in
  { removed; added; changed = List.rev changed; unchanged }

(* ----- per-signature level tables ----- *)

type levels = (signature, Level.t) Hashtbl.t

let add_level tbl a level =
  let s = signature_of_action a in
  match Hashtbl.find_opt tbl s with
  | Some prev when Level.compare level prev <= 0 -> ()
  | _ -> Hashtbl.replace tbl s level

let worst tbl = Hashtbl.fold (fun _ l acc -> Level.max acc l) tbl Level.None_

let of_levels ~before ~after =
  let present tbl =
    Hashtbl.fold
      (fun s l acc ->
        if Level.compare l Level.None_ > 0 then (s, l) :: acc else acc)
      tbl []
    |> List.sort compare
  in
  let level_in tbl s =
    Option.value (Hashtbl.find_opt tbl s) ~default:Level.None_
  in
  let b = present before and a = present after in
  let removed, changed, unchanged =
    List.fold_right
      (fun (s, before) (removed, changed, unchanged) ->
        let after = level_in after s in
        let c = { signature = s; before; after } in
        if Level.equal after Level.None_ then (c :: removed, changed, unchanged)
        else if Level.equal before after then
          (removed, changed, unchanged + 1)
        else (removed, c :: changed, unchanged))
      b ([], [], 0)
  in
  let added =
    List.filter_map
      (fun (s, after) ->
        if Level.equal (level_in before s) Level.None_ then
          Some { signature = s; before = Level.None_; after }
        else None)
      a
  in
  { removed; added; changed; unchanged }

let improved t =
  t.added = []
  && List.for_all (fun c -> Level.compare c.after c.before < 0) t.changed

let pp_signature ppf s =
  Format.fprintf ppf "%a of %s by %s" Action.pp_kind s.kind
    (match s.store with Some st -> st | None -> "(no store)")
    s.actor;
  Format.fprintf ppf " [%s]" (String.concat ", " s.fields)

let pp ppf t =
  let change verb c =
    Format.fprintf ppf "  %s %a: %a -> %a@," verb pp_signature c.signature
      Level.pp c.before Level.pp c.after
  in
  Format.fprintf ppf "@[<v>";
  List.iter (change "removed") t.removed;
  List.iter (change "added  ") t.added;
  List.iter (change "changed") t.changed;
  Format.fprintf ppf "  (%d finding signature(s) unchanged)@]" t.unchanged
