let label_style (a : Action.t) =
  match a.Action.provenance with
  | Action.From_flow _ -> ""
  | Action.Potential -> "style=dashed"

let to_dot lts = Plts.to_dot ~graph_name:"privacy_lts" ~label_style lts

(* Transitions per distinct label: an int per transition, counted by
   interned label id. *)
let label_counts lts =
  let labels = Option.get (Plts.interned_labels lts) in
  let counts = Array.make (Array.length labels) 0 in
  Plts.iter_states lts (fun s ->
      Plts.iter_successors_lid lts s (fun l _ -> counts.(l) <- counts.(l) + 1));
  List.combine (Array.to_list labels) (Array.to_list counts)

(* Each risk-transition target is one more state, reached by one more
   transition: an inferred read. *)
let summary_with_risks lts risks =
  let inferred = Pseudonym_risk.num_targets risks in
  let kinds = Hashtbl.create 8 and provs = Hashtbl.create 4 in
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  List.iter
    (fun ((a : Action.t), n) ->
      bump kinds (Format.asprintf "%a" Action.pp_kind a.kind) n;
      bump provs
        (match a.provenance with
        | Action.From_flow _ -> "flow"
        | Action.Potential -> "potential")
        n)
    (List.filter (fun (_, n) -> n > 0) (label_counts lts));
  if inferred > 0 then begin
    bump kinds "read" inferred;
    bump provs "inferred" inferred
  end;
  let render tbl =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %d" k v :: acc) tbl []
    |> List.sort String.compare
    |> String.concat ", "
  in
  Printf.sprintf "%d states, %d transitions (%s; %s)"
    (Plts.num_states lts + inferred)
    (Plts.num_transitions lts + inferred)
    (render kinds) (render provs)

let summary u lts =
  ignore u;
  summary_with_risks lts []
