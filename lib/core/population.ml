open Mdp_dataflow
module Prng = Mdp_prelude.Prng
module Listx = Mdp_prelude.Listx

type spec = {
  seed : int;
  size : int;
  westin_mix : (Questionnaire.westin * float) list;
  agree_probability : float;
}

let default_mix =
  [
    (Questionnaire.Fundamentalist, 0.25);
    (Questionnaire.Pragmatist, 0.55);
    (Questionnaire.Unconcerned, 0.20);
  ]

(* [total] is the sum of the mix's weights, taken once per [simulate]. *)
let pick_segment rng total mix =
  let x = Prng.float rng total in
  let rec go acc = function
    | [ (w, _) ] -> w
    | (w, p) :: rest -> if x < acc +. p then w else go (acc +. p) rest
    | [] -> invalid_arg "Population: empty westin mix"
  in
  go 0.0 mix

(* Per-user loops poll [cancel] once per this many users: a poll is an
   atomic read plus (with a deadline) a clock read, noise against a few
   thousand users' work. *)
let cancel_poll_users = 4096

let poll_cancel cancel i =
  match cancel with
  | Some c when i land (cancel_poll_users - 1) = 0 -> Mdp_obs.Cancel.check c
  | _ -> ()

(* [simulate]'s shared profiles: one binary trie per segment over the
   services' agree draws, in diagram order. A user's draws walk it from
   the segment's root, and the node they end at holds the profile of
   that (segment, agreed services), whatever the number of services. *)
type trie = {
  mutable declined : trie option;
  mutable agreed : trie option;
  mutable profile : User_profile.t option;
}

let trie () = { declined = None; agreed = None; profile = None }

let child t yes =
  match if yes then t.agreed else t.declined with
  | Some c -> c
  | None ->
    let c = trie () in
    if yes then t.agreed <- Some c else t.declined <- Some c;
    c

(* Keyed by the segment itself: a mix may name a segment twice. *)
let segment_root roots = function
  | Questionnaire.Fundamentalist -> roots.(0)
  | Pragmatist -> roots.(1)
  | Unconcerned -> roots.(2)

let simulate ?cancel spec diagram =
  if spec.westin_mix = [] then invalid_arg "Population.simulate: empty mix";
  let rng = Prng.create ~seed:spec.seed in
  let total = Listx.sum_byf snd spec.westin_mix in
  let services = List.map (fun (s : Service.t) -> s.id) diagram.Diagram.services in
  let nservices = List.length services in
  let drawn = Array.make nservices false in
  let roots = Array.init 3 (fun _ -> trie ()) in
  (* A profile depends only on (segment, agreed services): each distinct
     one is built once, at its trie node, and shared by every user who
     draws it. *)
  List.init spec.size (fun i ->
      poll_cancel cancel i;
      let segment = pick_segment rng total spec.westin_mix in
      let node = ref (segment_root roots segment) in
      for k = 0 to nservices - 1 do
        let yes = Prng.float rng 1.0 < spec.agree_probability in
        drawn.(k) <- yes;
        node := child !node yes
      done;
      match !node.profile with
      | Some p -> p
      | None ->
        let agreed = List.filteri (fun k _ -> drawn.(k)) services in
        let p =
          Questionnaire.profile diagram segment ~agreed_services:agreed
            ~answers:[]
        in
        !node.profile <- Some p;
        p)

type hotspot = {
  actor : string;
  store : string option;
  affected : int;
  worst : Level.t;
}

type aggregate = {
  total : int;
  by_level : (Level.t * int) list;
  hotspots : hotspot list;
}

(* Shared by the naive and compiled paths so that equal hotspot sets
   render identically: worst level first, then reach, then the (actor,
   store) key — a total order, so ties cannot depend on hash-table or
   slot enumeration order. *)
let sort_hotspots =
  List.sort (fun a b ->
      match Level.compare b.worst a.worst with
      | 0 -> (
        match Int.compare b.affected a.affected with
        | 0 -> compare (a.actor, a.store) (b.actor, b.store)
        | c -> c)
      | c -> c)

let level_order = [ Level.None_; Level.Low; Level.Medium; Level.High ]

let analyse ?matrix ?model u lts profiles =
  let level_counts = Hashtbl.create 4 in
  let hotspot_tbl = Hashtbl.create 16 in
  List.iter
    (fun profile ->
      let report = Disclosure_risk.analyse ?matrix ?model u lts profile in
      let worst = Disclosure_risk.max_level report in
      Hashtbl.replace level_counts worst
        (1 + Option.value (Hashtbl.find_opt level_counts worst) ~default:0);
      (* Each user counts at most once per (actor, store) access, at
         the worst level of their findings on it — findings at two
         levels on the same access are still one affected user. *)
      let per_user = Hashtbl.create 8 in
      List.iter
        (fun (f : Disclosure_risk.finding) ->
          let key = (f.action.Action.actor, f.action.Action.store) in
          let worst_here =
            Option.value (Hashtbl.find_opt per_user key) ~default:Level.None_
          in
          Hashtbl.replace per_user key (Level.max worst_here f.level))
        report.findings;
      Hashtbl.iter
        (fun key level ->
          let affected, worst_so_far =
            Option.value
              (Hashtbl.find_opt hotspot_tbl key)
              ~default:(0, Level.None_)
          in
          Hashtbl.replace hotspot_tbl key
            (affected + 1, Level.max worst_so_far level))
        per_user)
    profiles;
  let by_level =
    List.filter_map
      (fun l ->
        Option.map (fun c -> (l, c)) (Hashtbl.find_opt level_counts l))
      level_order
  in
  let hotspots =
    Hashtbl.fold
      (fun (actor, store) (affected, worst) acc ->
        { actor; store; affected; worst } :: acc)
      hotspot_tbl []
    |> sort_hotspots
  in
  { total = List.length profiles; by_level; hotspots }

(* ----- equivalence classes ----- *)

(* A profile's σ by universe field index (0 where it names no
   sensitivity), filled in one pass over its sensitivities. *)
let sigma_of u =
  let nf = Universe.nfields u in
  let pos = Hashtbl.create nf in
  for i = 0 to nf - 1 do Hashtbl.replace pos (Universe.field_at u i) i done;
  fun p ->
    let sg = Array.make nf 0.0 in
    List.iter
      (fun (f, v) -> Option.iter (fun i -> sg.(i) <- v) (Hashtbl.find_opt pos f))
      (User_profile.sensitivities p);
    sg

(* [classes]' identity memo holds this many physically distinct
   profiles with their class counters, replaced round-robin. It is
   consulted only while its misses exceed its hits by at most this
   many: on a list of distinct profiles it gives up after one filling,
   so such a list costs one key per profile, as without the memo. *)
let memo_slots = 32

(* Within one universe, everything the analysis reads off a profile is
   (a) its sensitivity on each universe field and (b) which diagram
   services it agreed to (allowance, σ zeroing and the likelihood
   scenarios all derive from those). Profiles equal on both are
   indistinguishable, so a simulated population — |segments| baselines
   x subsets of the service list — collapses to at most
   |segments| x 2^|services| classes regardless of size. [simulate]
   shares one profile per class, so a profile seen again ([==]) adds to
   its class's counter through the memo, and only a profile the memo
   does not hold has its key computed. *)
let classes ?cancel u profiles =
  let diagram = Universe.diagram u in
  let svc_pos = Hashtbl.create 8 in
  List.iteri
    (fun i (s : Service.t) -> Hashtbl.replace svc_pos s.id i)
    diagram.Diagram.services;
  let sigma = sigma_of u in
  let key p =
    let agreed =
      List.sort_uniq Int.compare
        (List.filter_map
           (fun s -> Hashtbl.find_opt svc_pos s)
           (User_profile.agreed_services p))
    in
    (sigma p, agreed)
  in
  let counts = Hashtbl.create 64 in
  let order = ref [] in
  (* slots at [filled] and above are vacant and never compared *)
  let memo = Array.make memo_slots (User_profile.make ~agreed_services:[] ()) in
  let memo_counts = Array.make memo_slots (ref 0) in
  let filled = ref 0 in
  let next_slot = ref 0 in
  let keyed = ref 0 in
  let hits = ref 0 in
  List.iteri
    (fun i p ->
      poll_cancel cancel i;
      let memo_on = !keyed <= !hits + memo_slots in
      let s = ref 0 in
      if memo_on then while !s < !filled && memo.(!s) != p do incr s done;
      if memo_on && !s < !filled then begin
        incr hits;
        incr memo_counts.(!s)
      end
      else begin
        incr keyed;
        let k = key p in
        let r =
          match Hashtbl.find_opt counts k with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add counts k r;
            order := (p, r) :: !order;
            r
        in
        incr r;
        if memo_on then begin
          memo.(!next_slot) <- p;
          memo_counts.(!next_slot) <- r;
          filled := max !filled (!next_slot + 1);
          next_slot := (!next_slot + 1) mod memo_slots
        end
      end)
    profiles;
  Mdp_obs.Metrics.add "population/class_keys" !keyed;
  List.rev_map (fun (p, r) -> (p, !r)) !order

(* ----- compiled aggregation ----- *)

(* Folds per-class summaries, in class order, with sums and maxes only,
   so the aggregate is identical to the naive per-profile path
   (summation order cannot matter, and [sort_hotspots] is a total
   order). *)
let aggregate_of plan cls summaries =
  let nslots = Array.length (Risk_plan.slots plan) in
  let counts = Array.make 4 0 in
  let affected = Array.make (max nslots 1) 0 in
  let worst = Array.make (max nslots 1) Level.None_ in
  Array.iteri
    (fun c (_, weight) ->
      let s = summaries.(c) in
      let r = Level.rank s.Risk_plan.worst in
      counts.(r) <- counts.(r) + weight;
      Array.iteri
        (fun i lvl ->
          if Level.compare lvl Level.None_ > 0 then begin
            affected.(i) <- affected.(i) + weight;
            worst.(i) <- Level.max worst.(i) lvl
          end)
        s.Risk_plan.slot_levels)
    cls;
  let by_level =
    List.filter_map
      (fun l ->
        let c = counts.(Level.rank l) in
        if c > 0 then Some (l, c) else None)
      level_order
  in
  let hotspots =
    Array.to_list
      (Array.mapi
         (fun i (actor, store) ->
           { actor; store; affected = affected.(i); worst = worst.(i) })
         (Risk_plan.slots plan))
    |> List.filter (fun h -> h.affected > 0)
    |> sort_hotspots
  in
  { total = Array.fold_left (fun acc (_, w) -> acc + w) 0 cls;
    by_level; hotspots }

(* The one class-evaluation loop: [eval plan c] for every class index
   [c < n], no per-profile report ever materialised. The token is
   polled every 64 classes; a fired token stops the loop and raises. *)
let summaries_for ?cancel plan n eval =
  let out =
    Array.make n { Risk_plan.worst = Level.None_; slot_levels = [||] }
  in
  let fired c =
    match cancel with
    | Some tok -> c land 63 = 0 && Mdp_obs.Cancel.cancelled tok
    | None -> false
  in
  let c = ref 0 in
  while !c < n && not (fired !c) do
    out.(!c) <- eval plan !c;
    incr c
  done;
  Mdp_obs.Metrics.add "population/class_evals" !c;
  Option.iter Mdp_obs.Cancel.check cancel;
  out

let plan_and_classes ?matrix ?model ?cancel ?plan ?classes:precomputed u lts
    profiles =
  let plan =
    match plan with
    | Some p -> p
    | None -> Risk_plan.compile ?matrix ?model u lts
  in
  let cls =
    match precomputed with Some c -> c | None -> classes ?cancel u profiles
  in
  (plan, Array.of_list cls)

let class_summaries ?cancel plan cls =
  summaries_for ?cancel plan (Array.length cls) (fun plan c ->
      Risk_plan.summary plan (fst cls.(c)))

let analyse_compiled ?matrix ?model ?cancel ?plan ?classes u lts
    profiles =
  Mdp_obs.Metrics.span "population/analyse_compiled" @@ fun () ->
  Option.iter Mdp_obs.Cancel.check cancel;
  let plan, cls =
    plan_and_classes ?matrix ?model ?cancel ?plan ?classes u lts profiles
  in
  Mdp_obs.Metrics.add "population/profiles"
    (Array.fold_left (fun acc (_, w) -> acc + w) 0 cls);
  Mdp_obs.Metrics.add "population/classes" (Array.length cls);
  let summaries = class_summaries ?cancel plan cls in
  Mdp_obs.Metrics.span "population/merge" @@ fun () ->
  aggregate_of plan cls summaries

(* ----- cached class summaries + σ-delta reaggregation ----- *)

type cached = {
  ca_u : Universe.t;
  ca_plan : Risk_plan.t;
  ca_classes : (User_profile.t * int) array;
  ca_sigma : float array array;
      (* per class, σ by universe field index — the reuse key *)
  ca_summaries : Risk_plan.summary array;
}

let prepare ?matrix ?model ?cancel ?plan ?classes u lts profiles =
  Mdp_obs.Metrics.span "population/prepare" @@ fun () ->
  let plan, cls =
    plan_and_classes ?matrix ?model ?cancel ?plan ?classes u lts profiles
  in
  let sigma = Array.map (sigma_of u) (Array.map fst cls) in
  let summaries = class_summaries ?cancel plan cls in
  { ca_u = u; ca_plan = plan; ca_classes = cls; ca_sigma = sigma;
    ca_summaries = summaries }

let cached_aggregate c = aggregate_of c.ca_plan c.ca_classes c.ca_summaries

let override_profile overrides p =
  let existing = User_profile.sensitivities p in
  let overridden =
    List.map
      (fun (f, v) ->
        match List.assoc_opt f overrides with
        | Some v' -> (f, v')
        | None -> (f, v))
      existing
  in
  let fresh =
    List.filter
      (fun (f, _) -> not (List.mem_assoc f existing))
      overrides
  in
  User_profile.make
    ~sensitivities:(overridden @ fresh)
    ~agreed_services:(User_profile.agreed_services p)
    ()

let reaggregate ?cancel c ~overrides =
  Mdp_obs.Metrics.span "population/reaggregate" @@ fun () ->
  let u = c.ca_u in
  let idx =
    List.map (fun (f, v) -> (Universe.field_index u f, v)) overrides
  in
  (* a class whose σ already sits at every override value is untouched:
     the edited representative is indistinguishable from the cached one *)
  let stale =
    Array.map
      (fun sg -> List.exists (fun (i, v) -> sg.(i) <> v) idx)
      c.ca_sigma
  in
  let stale_ids =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun i -> if stale.(i) then Some i else None)
            (Seq.init (Array.length stale) Fun.id)))
  in
  let stale_arr = Array.of_list stale_ids in
  let fresh =
    summaries_for ?cancel c.ca_plan (Array.length stale_arr)
      (fun plan j ->
        let p, _ = c.ca_classes.(stale_arr.(j)) in
        Risk_plan.summary plan (override_profile overrides p))
  in
  let summaries = Array.copy c.ca_summaries in
  Array.iteri (fun j i -> summaries.(i) <- fresh.(j)) stale_arr;
  let reused = Array.length c.ca_classes - Array.length stale_arr in
  ( aggregate_of c.ca_plan c.ca_classes summaries,
    reused,
    Array.length stale_arr )

let pp_aggregate ppf agg =
  Format.fprintf ppf "@[<v>%d users:@," agg.total;
  List.iter
    (fun (l, c) -> Format.fprintf ppf "  worst level %a: %d user(s)@," Level.pp l c)
    agg.by_level;
  Format.fprintf ppf "hotspots:@,";
  List.iter
    (fun h ->
      Format.fprintf ppf "  %s%s: %d user(s), worst %a@," h.actor
        (match h.store with Some s -> " on " ^ s | None -> "")
        h.affected Level.pp h.worst)
    agg.hotspots;
  Format.fprintf ppf "@]"
