type t = Event.t list

let of_lines text =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go acc (lineno + 1) rest
    | line :: rest -> (
      match Event.of_line line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok event -> (
        match acc with
        | prev :: _ when event.Event.time <= prev.Event.time ->
          Error
            (Printf.sprintf "line %d: timestamp %d not increasing" lineno
               event.Event.time)
        | _ -> go (event :: acc) (lineno + 1) rest))
  in
  go [] 1 lines

type stats = {
  events : int;
  span : int;
  by_kind : (Mdp_core.Action.kind * int) list;
  by_actor : (string * int) list;
  ad_hoc : int;
}

(* One pass over the trace: the old version walked it five times
   (two group_bys, a count, a length and an O(n) List.nth for the last
   event).  Group orders match [Listx.group_by]: first appearance. *)
let stats trace =
  let kind_tbl = Hashtbl.create 8 in
  let actor_tbl = Hashtbl.create 8 in
  let kind_order = ref [] and actor_order = ref [] in
  let bump : 'k. ('k, int ref) Hashtbl.t -> 'k list ref -> 'k -> unit =
   fun tbl order key ->
    match Hashtbl.find_opt tbl key with
    | Some r -> incr r
    | None ->
      Hashtbl.add tbl key (ref 1);
      order := key :: !order
  in
  let events = ref 0 and ad_hoc = ref 0 in
  let first = ref 0 and last = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      if !events = 0 then first := e.time;
      last := e.time;
      incr events;
      if e.service = None then incr ad_hoc;
      bump kind_tbl kind_order e.kind;
      bump actor_tbl actor_order e.actor)
    trace;
  let collect tbl order =
    List.rev_map (fun k -> (k, !(Hashtbl.find tbl k))) !order
  in
  {
    events = !events;
    span = (if !events <= 1 then 0 else !last - !first);
    by_kind = collect kind_tbl kind_order;
    by_actor = collect actor_tbl actor_order;
    ad_hoc = !ad_hoc;
  }

(* Feed a trace's stats into the metrics subsystem, so runtime event
   streams surface through the same exporters as the analysis engines. *)
let publish_metrics ?(prefix = "trace") trace =
  if Mdp_obs.Metrics.enabled () then begin
    let s = stats trace in
    Mdp_obs.Metrics.add (prefix ^ "/events") s.events;
    Mdp_obs.Metrics.add (prefix ^ "/ad_hoc") s.ad_hoc;
    Mdp_obs.Metrics.observe (prefix ^ "/span_ticks") s.span;
    List.iter
      (fun (k, c) ->
        Mdp_obs.Metrics.add
          (Format.asprintf "%s/kind/%a" prefix Mdp_core.Action.pp_kind k)
          c)
      s.by_kind
  end

let pp_stats ppf s =
  Format.fprintf ppf "%d events over %d ticks (%d ad-hoc); by kind: %s; by actor: %s"
    s.events s.span s.ad_hoc
    (String.concat ", "
       (List.map
          (fun (k, c) ->
            Printf.sprintf "%s %d" (Format.asprintf "%a" Mdp_core.Action.pp_kind k) c)
          s.by_kind))
    (String.concat ", "
       (List.map (fun (a, c) -> Printf.sprintf "%s %d" a c) s.by_actor))
