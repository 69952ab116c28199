module Json = Mdp_prelude.Json

type entry = { monitor : Monitor.t; mutable rev_alerts : Monitor.alert list }

type t = {
  template : Monitor.t;  (* every subject's monitor starts as a copy *)
  min_level : Mdp_core.Level.t;
  resync_depth : int;
  monitors : (string, entry) Hashtbl.t;
  mutable rev_subjects : string list;
}

let create ?(min_level = Mdp_core.Level.Low) ?(resync_depth = 0) ~annotate
    universe lts =
  {
    template = Monitor.create ~min_level ~resync_depth ~annotate universe lts;
    min_level;
    resync_depth;
    monitors = Hashtbl.create 16;
    rev_subjects = [];
  }

let add_entry t subject entry =
  Hashtbl.add t.monitors subject entry;
  t.rev_subjects <- subject :: t.rev_subjects

let entry_for t subject =
  match Hashtbl.find_opt t.monitors subject with
  | Some e -> e
  | None ->
    let e =
      {
        monitor = Monitor.fresh t.template;
        rev_alerts = [];
      }
    in
    add_entry t subject e;
    e

let observe t ~subject event =
  let e = entry_for t subject in
  let alerts = Monitor.observe e.monitor event in
  e.rev_alerts <- List.rev_append alerts e.rev_alerts;
  alerts

let subjects t = List.rev t.rev_subjects

let state_of t ~subject =
  Option.map
    (fun e -> Monitor.current_state e.monitor)
    (Hashtbl.find_opt t.monitors subject)

let monitor_stats t ~subject =
  Option.map (fun e -> Monitor.stats e.monitor) (Hashtbl.find_opt t.monitors subject)

let alerts_for t ~subject =
  match Hashtbl.find_opt t.monitors subject with
  | Some e -> List.rev e.rev_alerts
  | None -> []

(* ------------------------------------------------------------------ *)
(* Health *)

type health = Healthy | Degraded of string | Lost

let lost_threshold = 3

let health_of_stats (s : Monitor.stats) =
  if s.Monitor.consecutive_dead >= lost_threshold then Lost
  else begin
    let reasons = ref [] in
    let note n what = if n > 0 then reasons := Printf.sprintf "%d %s" n what :: !reasons in
    note s.Monitor.dead "dead-lettered";
    note s.Monitor.resyncs "resyncs";
    note s.Monitor.late "late arrivals";
    note s.Monitor.duplicates "duplicates";
    match List.rev !reasons with
    | [] -> Healthy
    | reasons -> Degraded (String.concat ", " reasons)
  end

let health t ~subject =
  Option.map
    (fun e -> health_of_stats (Monitor.stats e.monitor))
    (Hashtbl.find_opt t.monitors subject)

let health_summary t =
  List.map
    (fun subject ->
      match health t ~subject with
      | Some h -> (subject, h)
      | None -> assert false)
    (subjects t)

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

let checkpoint t =
  Json.Obj
    [
      ("version", Json.int 1);
      ("min_level", Json.Str (Mdp_core.Level.to_string t.min_level));
      ("resync_depth", Json.int t.resync_depth);
      ( "subjects",
        Json.List
          (List.map
             (fun subject ->
               let e = Hashtbl.find t.monitors subject in
               Json.Obj
                 [
                   ("subject", Json.Str subject);
                   ("monitor", Monitor.to_json e.monitor);
                 ])
             (subjects t)) );
    ]

let ( let* ) = Result.bind

let restore ~annotate universe lts json =
  let field name conv err =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error err
  in
  let* level_s =
    field "min_level" Json.to_str_opt "checkpoint: missing fleet min_level"
  in
  let* min_level =
    match Mdp_core.Level.of_string level_s with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "checkpoint: bad level %S" level_s)
  in
  let* resync_depth =
    field "resync_depth" Json.to_int_opt
      "checkpoint: missing fleet resync_depth"
  in
  let* subject_objs =
    field "subjects" Json.to_list_opt "checkpoint: missing subject list"
  in
  let t = create ~min_level ~resync_depth ~annotate universe lts in
  let* () =
    List.fold_left
      (fun acc obj ->
        let* () = acc in
        let* subject =
          match Option.bind (Json.member "subject" obj) Json.to_str_opt with
          | Some s -> Ok s
          | None -> Error "checkpoint: subject entry without a name"
        in
        let* monitor_json =
          match Json.member "monitor" obj with
          | Some j -> Ok j
          | None -> Error (Printf.sprintf "checkpoint: %s has no monitor" subject)
        in
        let* monitor = Monitor.of_json ~annotate universe lts monitor_json in
        add_entry t subject { monitor; rev_alerts = [] };
        Ok ())
      (Ok ()) subject_objs
  in
  Ok t
