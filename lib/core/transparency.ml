open Mdp_dataflow

type status = Has | Could

type entry = {
  actor : string;
  field : Field.t;
  status : status;
  via : Action.t list;
}

let privacy lts s = (Plts.state_data lts s : Config.t).Config.privacy

(* Per status, the lowest id — the first state in breadth-first order —
   where each variable holds, or -1. One pass that decodes each state
   once, stopped as soon as [found has could] says the facts wanted are
   all settled. *)
let first_states u lts ~found =
  let n = Universe.nvars u in
  let has = Array.make n (-1) and could = Array.make n (-1) in
  let s = ref 0 in
  while !s < Plts.num_states lts && not (found has could) do
    let p = privacy lts !s in
    for v = 0 to n - 1 do
      if has.(v) < 0 && Privacy_state.has_i p v then has.(v) <- !s;
      if could.(v) < 0 && Privacy_state.could_i p v then could.(v) <- !s
    done;
    incr s
  done;
  (has, could)

(* (var index, status) pairs in var order; Has dominates Could. *)
let collect u ~has ~could =
  let acc = ref [] in
  for v = Universe.nvars u - 1 downto 0 do
    if has v then acc := (v, Has) :: !acc
    else if could v then acc := (v, Could) :: !acc
  done;
  !acc

(* Ordered entries, each explained by the witness-tree path to the
   first state exhibiting its fact (one always does: the facts come
   from explored states). *)
let entries u lts vars (has, could) =
  if vars = [] then []
  else begin
    let tree = Plts.witness_tree lts in
    let labels = Option.get (Plts.interned_labels lts) in
    List.map
      (fun (v, status) ->
        let first = match status with Has -> has.(v) | Could -> could.(v) in
        {
          actor = Universe.actor_name u (Universe.var_actor u v);
          field = Universe.field_at u (Universe.var_field u v);
          status;
          via = Plts.unwind tree (fun lid _ -> labels.(lid)) first;
        })
      vars
  end

let at_state u lts state =
  let p = privacy lts state in
  let vars =
    collect u ~has:(Privacy_state.has_i p) ~could:(Privacy_state.could_i p)
  in
  let found has could =
    List.for_all
      (fun (v, status) ->
        (match status with Has -> has | Could -> could).(v) >= 0)
      vars
  in
  entries u lts vars (first_states u lts ~found)

let worst_case u lts =
  (* Union of variables over reachable states: every state is. *)
  let ((has, could) as firsts) =
    first_states u lts ~found:(fun _ _ -> false)
  in
  let vars =
    collect u ~has:(fun v -> has.(v) >= 0) ~could:(fun v -> could.(v) >= 0)
  in
  entries u lts vars firsts

let for_actor entries actor = List.filter (fun e -> e.actor = actor) entries

let pp_entry ppf e =
  Format.fprintf ppf "%s %s %s%s" e.actor
    (match e.status with Has -> "has seen" | Could -> "could see")
    (Field.name e.field)
    (match e.via with
    | [] -> ""
    | trace ->
      Printf.sprintf " (via %s)"
        (String.concat " ; "
           (List.map
              (fun (a : Action.t) ->
                Format.asprintf "%a by %s" Action.pp_kind a.kind a.actor)
              trace)))

let pp ppf entries =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_entry ppf entries
