(* The seed generation engine, kept verbatim (modulo specialisation to
   Config/Action) as a test-only oracle: a cons-list LTS with linear
   duplicate scans, full-config copies per successor, and per-state
   [Policy.allows] queries. It shares no code with the library engine
   (lib/core/generate.ml, emitting packed successor words into the LTS
   store), so it is the independent check on generation semantics, on
   the emission order and on the transitions the packed store records. *)

open Mdp_dataflow
open Mdp_prelude
module Core = Mdp_core
module Universe = Core.Universe
module Config = Core.Config
module Action = Core.Action
module Privacy_state = Core.Privacy_state
module Generate = Core.Generate

(* ----- the seed's list-based LTS, specialised to configs ----- *)

module Tbl = Hashtbl.Make (struct
  type t = Config.t

  let equal = Config.equal

  (* The seed's hash, without the avalanche finaliser Config.hash has
     since grown — kept verbatim so the oracle is the engine as it
     shipped. *)
  let hash (t : Config.t) =
    let h = ref (Core.Privacy_state.hash t.privacy) in
    Array.iter
      (fun s -> h := (!h * 65599) lxor Mdp_prelude.Bitset.hash s)
      t.stores;
    (!h * 65599) lxor Mdp_prelude.Bitset.hash t.executed
end)

type lts = {
  ids : int Tbl.t;
  mutable data : Config.t array;
  mutable n : int;
  mutable out : (Action.t * int) list array; (* reversed insertion order *)
  mutable ntrans : int;
}

let create () = { ids = Tbl.create 64; data = [||]; n = 0; out = [||]; ntrans = 0 }

let grow t =
  if t.n >= Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap t.data.(0) in
    Array.blit t.data 0 data 0 t.n;
    t.data <- data;
    let out = Array.make cap [] in
    Array.blit t.out 0 out 0 t.n;
    t.out <- out
  end

let add_state t s =
  match Tbl.find_opt t.ids s with
  | Some id -> id
  | None ->
    let id = t.n in
    if id = 0 then begin
      t.data <- Array.make 16 s;
      t.out <- Array.make 16 []
    end
    else grow t;
    t.data.(id) <- s;
    t.out.(id) <- [];
    t.n <- id + 1;
    Tbl.add t.ids s id;
    id

let add_transition t ~src ~label ~dst =
  let dup =
    List.exists (fun (l, d) -> d = dst && Action.equal l label) t.out.(src)
  in
  if not dup then begin
    t.out.(src) <- (label, dst) :: t.out.(src);
    t.ntrans <- t.ntrans + 1
  end

let explore ~max_states ~init ~step =
  let t = create () in
  let q = Queue.create () in
  Queue.push (add_state t init) q;
  while not (Queue.is_empty q) do
    let src = Queue.pop q in
    let src_data = t.data.(src) in
    List.iter
      (fun (label, dst_data) ->
        let before = t.n in
        let dst = add_state t dst_data in
        if t.n > max_states then failwith "Seed_engine.explore: too many states";
        add_transition t ~src ~label ~dst;
        if t.n > before then Queue.push dst q)
      (step src_data)
  done;
  t

(* ----- the seed's per-state successor function ----- *)

let schema_label (store : Datastore.t) fields =
  let schemas =
    Listx.dedup
      (List.filter_map
         (fun f ->
           Option.map (fun (s : Schema.t) -> s.id) (Datastore.schema_of_field store f))
         fields)
  in
  match schemas with [ s ] -> Some s | [] | _ :: _ -> Some store.id

let field_indices u fields = List.map (Universe.field_index u) fields

let set_has u (privacy : Privacy_state.t) ~actor fields =
  List.iter
    (fun f -> Bitset.set privacy.has (Universe.var u ~actor ~field:f))
    fields

let recompute_could u (cfg : Config.t) =
  let could = Bitset.create (Bitset.length cfg.privacy.could) in
  Array.iteri
    (fun s contents ->
      Bitset.iter
        (fun f ->
          List.iter
            (fun a -> Bitset.set could (Universe.var u ~actor:a ~field:f))
            (Universe.readers u ~store:s ~field:f))
        contents)
    cfg.stores;
  { cfg with privacy = { cfg.privacy with could } }

let set_could_for_creation u (cfg : Config.t) ~store fields =
  List.iter
    (fun f ->
      List.iter
        (fun a -> Bitset.set cfg.privacy.could (Universe.var u ~actor:a ~field:f))
        (Universe.readers u ~store ~field:f))
    fields

type flow_info = {
  index : int;
  service : Service.t;
  flow : Flow.t;
  kind : Flow.action_kind;
  prereqs : int list;
}

let flows_in_scope u (options : Generate.options) =
  let in_scope (svc : Service.t) =
    match options.services with
    | None -> true
    | Some ids -> List.mem svc.id ids
  in
  let all = List.init (Universe.nflows u) (fun i -> (i, Universe.flow_at u i)) in
  List.filter_map
    (fun (index, ((svc : Service.t), (flow : Flow.t))) ->
      if not (in_scope svc) then None
      else
        let prereqs =
          List.filter_map
            (fun (j, ((svc' : Service.t), (flow' : Flow.t))) ->
              if svc'.id = svc.id && flow'.order < flow.order then Some j
              else None)
            all
        in
        Some
          {
            index;
            service = svc;
            flow;
            kind = Diagram.classify (Universe.diagram u) flow;
            prereqs;
          })
    all

let source_holds u (cfg : Config.t) kind (flow : Flow.t) =
  match flow.src with
  | Flow.User -> true
  | Flow.Actor _ when kind = Flow.Create -> true
  | Flow.Actor a ->
    let ai = Universe.actor_index u a in
    List.for_all
      (fun f -> Bitset.get cfg.privacy.has (Universe.var u ~actor:ai ~field:f))
      (field_indices u flow.fields)
  | Flow.Store s ->
    let si = Universe.store_index u s in
    List.for_all
      (fun f -> Bitset.get cfg.stores.(si) f)
      (field_indices u flow.fields)

let flow_enabled (options : Generate.options) (cfg : Config.t) info =
  (not (Config.executed cfg ~flow:info.index))
  && (match options.ordering with
     | Generate.Data_driven -> true
     | Generate.Strict ->
       List.for_all (fun j -> Config.executed cfg ~flow:j) info.prereqs)

let effective_fields u (options : Generate.options) info =
  if not options.enforce_policy then info.flow.Flow.fields
  else
    let diagram = Universe.diagram u and policy = Universe.policy u in
    match info.kind with
    | Flow.Collect | Flow.Disclose -> info.flow.Flow.fields
    | Flow.Read ->
      let store = Flow.node_name info.flow.Flow.src
      and actor = Flow.node_name info.flow.Flow.dst in
      List.filter
        (fun f ->
          Mdp_policy.Policy.allows policy ~diagram ~actor
            Mdp_policy.Permission.Read ~store f)
        info.flow.Flow.fields
    | Flow.Create ->
      let store = Flow.node_name info.flow.Flow.dst
      and actor = Flow.node_name info.flow.Flow.src in
      List.filter
        (fun f ->
          Mdp_policy.Policy.allows policy ~diagram ~actor
            Mdp_policy.Permission.Write ~store f)
        info.flow.Flow.fields
    | Flow.Anon ->
      let store = Flow.node_name info.flow.Flow.dst
      and actor = Flow.node_name info.flow.Flow.src in
      List.filter
        (fun f ->
          Mdp_policy.Policy.allows policy ~diagram ~actor
            Mdp_policy.Permission.Write ~store (Field.anon_of f))
        info.flow.Flow.fields

(* A config with its own bitsets, for the successor to mutate. *)
let copy_config (c : Config.t) =
  let copy b = Bitset.of_list (Bitset.length b) (Bitset.to_list b) in
  {
    Config.privacy =
      {
        Privacy_state.has = copy c.privacy.has;
        could = copy c.privacy.could;
      };
    stores = Array.map copy c.stores;
    executed = copy c.executed;
  }

let apply_flow u (cfg : Config.t) info eff_fields =
  let cfg' = copy_config cfg in
  Bitset.set cfg'.executed info.index;
  let flow = { info.flow with Flow.fields = eff_fields } in
  let provenance =
    Action.From_flow { service = info.service.id; order = flow.order }
  in
  let action =
    match info.kind with
    | Flow.Collect ->
      let actor = Flow.node_name flow.dst in
      set_has u cfg'.privacy ~actor:(Universe.actor_index u actor)
        (field_indices u flow.fields);
      Action.make ~purpose:flow.purpose ~kind:Action.Collect
        ~fields:flow.fields ~actor provenance
    | Flow.Disclose ->
      let src = Flow.node_name flow.src and dst = Flow.node_name flow.dst in
      set_has u cfg'.privacy ~actor:(Universe.actor_index u dst)
        (field_indices u flow.fields);
      Action.make ~purpose:flow.purpose ~kind:Action.Disclose
        ~fields:flow.fields ~actor:src provenance
    | Flow.Create ->
      let actor = Flow.node_name flow.src in
      let si = Universe.store_index u (Flow.node_name flow.dst) in
      let fis = field_indices u flow.fields in
      set_has u cfg'.privacy ~actor:(Universe.actor_index u actor) fis;
      List.iter (Bitset.set cfg'.stores.(si)) fis;
      set_could_for_creation u cfg' ~store:si fis;
      let store = Universe.store_at u si in
      Action.make ?schema:(schema_label store flow.fields) ~store:store.id
        ~purpose:flow.purpose ~kind:Action.Create ~fields:flow.fields ~actor
        provenance
    | Flow.Anon ->
      let actor = Flow.node_name flow.src in
      let si = Universe.store_index u (Flow.node_name flow.dst) in
      let anon_fields = List.map Field.anon_of flow.fields in
      let fis = field_indices u anon_fields in
      List.iter (Bitset.set cfg'.stores.(si)) fis;
      set_could_for_creation u cfg' ~store:si fis;
      let store = Universe.store_at u si in
      Action.make ?schema:(schema_label store anon_fields) ~store:store.id
        ~purpose:flow.purpose ~kind:Action.Anon ~fields:flow.fields ~actor
        provenance
    | Flow.Read ->
      let actor = Flow.node_name flow.dst in
      let si = Universe.store_index u (Flow.node_name flow.src) in
      set_has u cfg'.privacy ~actor:(Universe.actor_index u actor)
        (field_indices u flow.fields);
      let store = Universe.store_at u si in
      Action.make ?schema:(schema_label store flow.fields) ~store:store.id
        ~purpose:flow.purpose ~kind:Action.Read ~fields:flow.fields ~actor
        provenance
  in
  (action, cfg')

let potential_reads u (options : Generate.options) (cfg : Config.t) =
  let transitions = ref [] in
  for a = 0 to Universe.nactors u - 1 do
    for s = 0 to Universe.nstores u - 1 do
      let fresh =
        List.filter
          (fun f ->
            Bitset.get cfg.stores.(s) f
            && not (Bitset.get cfg.privacy.has (Universe.var u ~actor:a ~field:f)))
          (Universe.readable_by u ~actor:a ~store:s)
      in
      let emit fis =
        let cfg' = copy_config cfg in
        set_has u cfg'.privacy ~actor:a fis;
        let store = Universe.store_at u s in
        let fields = List.map (Universe.field_at u) fis in
        let action =
          Action.make ?schema:(schema_label store fields) ~store:store.id
            ~kind:Action.Read ~fields ~actor:(Universe.actor_name u a)
            Action.Potential
        in
        transitions := (action, cfg') :: !transitions
      in
      if fresh <> [] then
        if options.granular_reads then List.iter (fun f -> emit [ f ]) fresh
        else emit fresh
    done
  done;
  !transitions

let potential_deletes u (cfg : Config.t) =
  let transitions = ref [] in
  for s = 0 to Universe.nstores u - 1 do
    if Bitset.to_list cfg.stores.(s) <> [] then
      List.iter
        (fun a ->
          let cfg' = copy_config cfg in
          let fields =
            List.map (Universe.field_at u) (Bitset.to_list cfg.stores.(s))
          in
          cfg'.stores.(s) <- Bitset.create (Bitset.length cfg.stores.(s));
          let cfg' = recompute_could u cfg' in
          let store = Universe.store_at u s in
          let action =
            Action.make ?schema:(schema_label store fields) ~store:store.id
              ~kind:Action.Delete ~fields ~actor:(Universe.actor_name u a)
              Action.Potential
          in
          transitions := (action, cfg') :: !transitions)
        (Universe.deleters u ~store:s)
  done;
  !transitions

let run ?(options = Generate.default_options) u =
  let infos = flows_in_scope u options in
  let step cfg =
    let from_flows =
      List.filter_map
        (fun info ->
          if not (flow_enabled options cfg info) then None
          else
            match effective_fields u options info with
            | [] -> None
            | eff ->
              if source_holds u cfg info.kind { info.flow with Flow.fields = eff }
              then Some (apply_flow u cfg info eff)
              else None)
        infos
    in
    let reads =
      if options.potential_reads then potential_reads u options cfg else []
    in
    let deletes =
      if options.potential_deletes then potential_deletes u cfg else []
    in
    from_flows @ reads @ deletes
  in
  explore ~max_states:options.max_states ~init:(Config.initial u) ~step

let num_states t = t.n
let num_transitions t = t.ntrans
let mem t cfg = Tbl.mem t.ids cfg
let find t cfg = Tbl.find_opt t.ids cfg

(* In insertion order. *)
let successors t id = List.rev t.out.(id)

(* ----- comparison against a library LTS ----- *)

(* A row as printed label and destination id, in insertion order. *)
let printed_row edges =
  List.map (fun (a, d) -> (Format.asprintf "%a" Action.pp a, d)) edges

(* [lts] is the seed's LTS, numbering included: both engines hand out
   ids in breadth-first discovery order, so state [i] of [lts] must be
   the seed's state [i] (compared through the seed's hash-consing, i.e.
   by [Config.equal]), and each row must list the seed's edges —
   printed label and destination id — in the seed's order. *)
let check_lts ctx t lts =
  let module Plts = Core.Plts in
  Alcotest.(check int) (ctx ^ " states") t.n (Plts.num_states lts);
  Alcotest.(check int) (ctx ^ " transitions") t.ntrans (Plts.num_transitions lts);
  for i = 0 to Plts.num_states lts - 1 do
    match find t (Plts.state_data lts i) with
    | Some j when j = i -> ()
    | Some j -> Alcotest.failf "%s: state %d is the seed's state %d" ctx i j
    | None -> Alcotest.failf "%s: state %d unknown to the seed engine" ctx i
  done;
  for i = 0 to Plts.num_states lts - 1 do
    if printed_row (Plts.successors lts i) <> printed_row (successors t i) then
      Alcotest.failf "%s: the row of state %d differs from the seed's" ctx i
  done
