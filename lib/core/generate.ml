open Mdp_dataflow
open Mdp_prelude

type ordering = Strict | Data_driven

type options = {
  ordering : ordering;
  potential_reads : bool;
  granular_reads : bool;
  potential_deletes : bool;
  enforce_policy : bool;
  services : string list option;
  max_states : int;
  mem_budget : int option;
  spill_dir : string option;
}

let default_options =
  {
    ordering = Strict;
    potential_reads = true;
    granular_reads = false;
    potential_deletes = false;
    enforce_policy = true;
    services = None;
    max_states = 100_000;
    mem_budget = None;
    spill_dir = None;
  }

let flow_only =
  { default_options with potential_reads = false; potential_deletes = false }

(* The schema label of an action touching [fields] of [store]: the schema
   containing them if unique, otherwise the store id itself. *)
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

(* Which flows are in scope, with their indices and strict-mode
   prerequisites, computed once per run. *)
type flow_info = {
  index : int;
  service : Service.t;
  flow : Flow.t;
  kind : Flow.action_kind;
  prereqs : int list; (* same-service flows with smaller order *)
}

let flows_in_scope u options =
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

(* Enforcement at the datastore interface: a [read] delivers only the
   fields the policy lets the actor read; a [create]/[anon] persists only
   the fields the policy lets the author write (for [anon], permission is
   checked on the anon variant actually written). An empty result disables
   the flow, as a fully denied operation would fail at run time. This is
   the only place generation consults [Policy.allows] — once per flow at
   compile time, never per state. *)
let effective_fields u options info =
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

(* A flow compiled to the data the successor function actually needs:
   the transition label, an enabling guard, and the state-variable deltas
   — all config-independent, so they are computed once per run instead of
   once per state (paper §II-B's extraction rules, evaluated ahead of
   time). Firing a compiled flow is then a handful of bitset unions. *)
type source_guard =
  | Always
  | Actor_has of int list (* privacy.has variable indices *)
  | Store_holds of int * int list (* store index, field indices *)

type compiled_flow = {
  cf_index : int;
  cf_prereqs : Bitset.t; (* flow indices that must have executed (Strict) *)
  cf_guard : source_guard;
  cf_action : Action.t;
  cf_has_vars : int list; (* privacy.has bits the action sets *)
  cf_store_write : (int * int list) option; (* store idx, field indices *)
  cf_could_vars : int list; (* privacy.could bits set on creation *)
}

let compile_flow u info eff_fields =
  let flow = { info.flow with Flow.fields = eff_fields } in
  let provenance =
    Action.From_flow { service = info.service.id; order = flow.order }
  in
  let vars_of actor fis =
    List.map (fun f -> Universe.var u ~actor ~field:f) fis
  in
  let could_vars_of ~store fis =
    List.concat_map
      (fun f ->
        List.map
          (fun a -> Universe.var u ~actor:a ~field:f)
          (Universe.readers u ~store ~field:f))
      fis
  in
  let action, has_vars, store_write, could_vars =
    match info.kind with
    | Flow.Collect ->
      let actor = Flow.node_name flow.dst in
      ( Action.make ~purpose:flow.purpose ~kind:Action.Collect
          ~fields:flow.fields ~actor provenance,
        vars_of (Universe.actor_index u actor) (field_indices u flow.fields),
        None,
        [] )
    | Flow.Disclose ->
      let src = Flow.node_name flow.src and dst = Flow.node_name flow.dst in
      ( Action.make ~purpose:flow.purpose ~kind:Action.Disclose
          ~fields:flow.fields ~actor:src provenance,
        vars_of (Universe.actor_index u dst) (field_indices u flow.fields),
        None,
        [] )
    | Flow.Create ->
      let actor = Flow.node_name flow.src in
      let si = Universe.store_index u (Flow.node_name flow.dst) in
      let fis = field_indices u flow.fields in
      let store = Universe.store_at u si in
      ( Action.make ?schema:(schema_label store flow.fields) ~store:store.id
          ~purpose:flow.purpose ~kind:Action.Create ~fields:flow.fields ~actor
          provenance,
        vars_of (Universe.actor_index u actor) fis,
        Some (si, fis),
        could_vars_of ~store:si fis )
    | Flow.Anon ->
      let actor = Flow.node_name flow.src in
      let si = Universe.store_index u (Flow.node_name flow.dst) in
      let anon_fields = List.map Field.anon_of flow.fields in
      let fis = field_indices u anon_fields in
      let store = Universe.store_at u si in
      ( Action.make ?schema:(schema_label store anon_fields) ~store:store.id
          ~purpose:flow.purpose ~kind:Action.Anon ~fields:flow.fields ~actor
          provenance,
        [],
        Some (si, fis),
        could_vars_of ~store:si fis )
    | Flow.Read ->
      let actor = Flow.node_name flow.dst in
      let si = Universe.store_index u (Flow.node_name flow.src) in
      let store = Universe.store_at u si in
      ( Action.make ?schema:(schema_label store flow.fields) ~store:store.id
          ~purpose:flow.purpose ~kind:Action.Read ~fields:flow.fields ~actor
          provenance,
        vars_of (Universe.actor_index u actor) (field_indices u flow.fields),
        None,
        [] )
  in
  (* Mirrors [source_holds] in the seed: the subject always holds their
     own raw data; creating a record is authorship (the Doctor creates a
     Diagnosis it never collected), whereas [anon] transforms data the
     actor must already hold. *)
  let guard =
    match flow.src with
    | Flow.User -> Always
    | Flow.Actor _ when info.kind = Flow.Create -> Always
    | Flow.Actor a ->
      Actor_has
        (vars_of (Universe.actor_index u a) (field_indices u flow.fields))
    | Flow.Store s ->
      Store_holds (Universe.store_index u s, field_indices u flow.fields)
  in
  {
    cf_index = info.index;
    cf_prereqs = Bitset.of_list (max 1 (Universe.nflows u)) info.prereqs;
    cf_guard = guard;
    cf_action = action;
    cf_has_vars = has_vars;
    cf_store_write = store_write;
    cf_could_vars = could_vars;
  }

let compile u options =
  List.filter_map
    (fun info ->
      match effective_fields u options info with
      | [] -> None
      | eff -> Some (compile_flow u info eff))
    (flows_in_scope u options)

let guard_holds (cfg : Config.t) = function
  | Always -> true
  | Actor_has vars -> List.for_all (Bitset.get cfg.privacy.has) vars
  | Store_holds (si, fis) -> List.for_all (Bitset.get cfg.stores.(si)) fis

let flow_enabled options (cfg : Config.t) cf =
  (not (Bitset.get cfg.executed cf.cf_index))
  && (match options.ordering with
     | Data_driven -> true
     | Strict -> Bitset.subset cf.cf_prereqs cfg.executed)
  && guard_holds cfg cf.cf_guard

(* Copy-on-write successor: only the bitsets the action changes are
   duplicated; everything else is shared with the parent config, which is
   what makes state-table probes cheap (physical equality fast paths). *)
let fire (cfg : Config.t) cf =
  let executed = Bitset.with_set cfg.executed cf.cf_index in
  let privacy =
    let has = Bitset.with_bits cfg.privacy.has cf.cf_has_vars in
    let could = Bitset.with_bits cfg.privacy.could cf.cf_could_vars in
    if has == cfg.privacy.has && could == cfg.privacy.could then cfg.privacy
    else { Privacy_state.has; could }
  in
  let stores =
    match cf.cf_store_write with
    | None -> cfg.stores
    | Some (si, fis) ->
      let contents = Bitset.with_bits cfg.stores.(si) fis in
      if contents == cfg.stores.(si) then cfg.stores
      else begin
        let stores = Array.copy cfg.stores in
        stores.(si) <- contents;
        stores
      end
  in
  { Config.privacy; stores; executed }

(* Memoised construction of potential-read actions: the action value and
   the privacy vars it sets depend only on (actor, store, field set) —
   never on the configuration — and the same few field sets recur across
   most states, so building the label (schema lookup, field names,
   record) once per distinct key removes the bulk of the emit cost.
   Sharing one [Action.t] across transitions is safe: actions are
   immutable, and no analysis writes an explored LTS's labels.

   The table is domain-local so concurrent explorations (serve workers,
   the sweep's fan-out) share no mutable state; each domain warms its
   own copy.
   [stamp] ties entries to one run — field indices mean different things
   in different universes. *)
let run_stamp = Atomic.make 1

let read_memo :
    (int ref * (int * int * int, Action.t * Bitset.t) Hashtbl.t) Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> (ref 0, Hashtbl.create 64))

(* [bits] is the fresh field set packed into one word (bit i = field i).
   The memo value pairs the action with the has-bitset mask it implies,
   ready for a word-wise union. *)
let read_action u ~stamp ~actor ~store bits =
  let cur, tbl = Domain.DLS.get read_memo in
  if !cur <> stamp then begin
    Hashtbl.reset tbl;
    cur := stamp
  end;
  let key = (actor, store, bits) in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let nf = Universe.nfields u in
    let fis = ref [] in
    for f = nf - 1 downto 0 do
      if bits land (1 lsl f) <> 0 then fis := f :: !fis
    done;
    let st = Universe.store_at u store in
    let fields = List.map (Universe.field_at u) !fis in
    let action =
      Action.make ?schema:(schema_label st fields) ~store:st.id
        ~kind:Action.Read ~fields ~actor:(Universe.actor_name u actor)
        Action.Potential
    in
    let mask = Bitset.create (Universe.nvars u) in
    Bitset.set_word mask ~pos:(actor * nf) ~len:nf bits;
    let v = (action, mask) in
    Hashtbl.add tbl key v;
    v

(* Policy-derived reads: fields present in the store, readable by the
   actor, and not yet identified by it (reads that change no state are
   omitted to keep the LTS acyclic).

   Fast path, available whenever every field index fits one machine word
   (in practice always): the fresh set for an (actor, store) pair is a
   single masked AND — readable & contents & ~has — with no per-bit
   probing, and the [has] update is a word-wise union with the memoised
   mask. Emission order matches the generic path: actors outer, stores
   inner, fields in increasing order. *)
let potential_reads_packed u options ~stamp ~readable_words (cfg : Config.t) =
  let nf = Universe.nfields u in
  let ns = Universe.nstores u in
  let transitions = ref [] in
  let store_words =
    Array.init ns (fun s -> Bitset.extract cfg.stores.(s) ~pos:0 ~len:nf)
  in
  for a = 0 to Universe.nactors u - 1 do
    let has = Bitset.extract cfg.privacy.has ~pos:(a * nf) ~len:nf in
    let row : int array = readable_words.(a) in
    for s = 0 to ns - 1 do
      let fresh = row.(s) land store_words.(s) land lnot has in
      if fresh <> 0 then begin
        let emit bits =
          let action, mask = read_action u ~stamp ~actor:a ~store:s bits in
          let privacy =
            {
              Privacy_state.has = Bitset.union cfg.privacy.has mask;
              could = cfg.privacy.could;
            }
          in
          transitions := (action, { cfg with Config.privacy }) :: !transitions
        in
        if options.granular_reads then begin
          let bits = ref fresh in
          while !bits <> 0 do
            let lsb = !bits land - !bits in
            emit lsb;
            bits := !bits land lnot lsb
          done
        end
        else emit fresh
      end
    done
  done;
  !transitions

(* Generic fallback for models with more fields than a word holds;
   mirrors the seed implementation. *)
let potential_reads_generic u options (cfg : Config.t) =
  let transitions = ref [] in
  for a = 0 to Universe.nactors u - 1 do
    for s = 0 to Universe.nstores u - 1 do
      let fresh = ref [] in
      Bitset.iter_inter
        (fun f ->
          if not (Bitset.get cfg.privacy.has (Universe.var u ~actor:a ~field:f))
          then fresh := f :: !fresh)
        (Universe.readable_bits u ~actor:a ~store:s)
        cfg.stores.(s);
      let fresh = List.rev !fresh in
      let emit fis =
        let vars = List.map (fun f -> Universe.var u ~actor:a ~field:f) fis in
        let privacy =
          {
            Privacy_state.has = Bitset.with_bits cfg.privacy.has vars;
            could = cfg.privacy.could;
          }
        in
        let cfg' = { cfg with Config.privacy } in
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
    if not (Bitset.is_empty cfg.stores.(s)) then
      List.iter
        (fun a ->
          let fields =
            List.map (Universe.field_at u) (Bitset.to_list cfg.stores.(s))
          in
          let stores = Array.copy cfg.stores in
          stores.(s) <- Bitset.create (Universe.nfields u);
          (* Recompute every [could] bit from the remaining contents: an
             actor could identify a field iff some store still holds it
             and the policy lets the actor read it there. *)
          let could = Bitset.create (Universe.nvars u) in
          Array.iteri
            (fun s' contents ->
              Bitset.iter
                (fun f ->
                  List.iter
                    (fun a' ->
                      Bitset.set could (Universe.var u ~actor:a' ~field:f))
                    (Universe.readers u ~store:s' ~field:f))
                contents)
            stores;
          let cfg' =
            {
              Config.privacy = { Privacy_state.has = cfg.privacy.has; could };
              stores;
              executed = cfg.executed;
            }
          in
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

let fresh_stamp () = Atomic.fetch_and_add run_stamp 1

(* The per-(actor, store) readable field sets as single words, the fast
   potential-read representation; [None] when the model is too wide for
   one word. *)
let readable_rows u options =
  let nf = Universe.nfields u in
  if options.potential_reads && nf <= Bitset.bits_per_word then
    Some
      (Array.init (Universe.nactors u) (fun a ->
           Array.init (Universe.nstores u) (fun s ->
               Bitset.extract
                 (Universe.readable_bits u ~actor:a ~store:s)
                 ~pos:0 ~len:nf)))
  else None

(* The successor function [run] explores with: enabled flows in
   flow-index order, then potential reads, then potential deletes. *)
let make_step u options ~stamp ~compiled ~readable_words =
  fun cfg ->
    let from_flows =
      List.filter_map
        (fun cf ->
          if flow_enabled options cfg cf then Some (cf.cf_action, fire cfg cf)
          else None)
        compiled
    in
    let reads =
      match readable_words with
      | Some readable_words ->
        potential_reads_packed u options ~stamp ~readable_words cfg
      | None ->
        if options.potential_reads then potential_reads_generic u options cfg
        else []
    in
    let deletes = if options.potential_deletes then potential_deletes u cfg else [] in
    from_flows @ reads @ deletes

(* The store class of a transition label: the index of the store its
   action touches (potential reads, deletes and store-directed flows all
   carry one); -1 for store-less actions. *)
let store_classifier u (a : Action.t) =
  match a.Action.store with
  | Some s -> Universe.store_index u s
  | None -> -1

(* The LTS stores only the configs' bitset payload words (layout and
   width are universe constants); [init] doubles as the shape template
   for decoding. *)
let config_packer init =
  {
    Mdp_lts.Lts.pk_words = Config.nwords init;
    pk_blit = (fun cfg dst off -> ignore (Config.blit_words cfg dst off : int));
    pk_decode = (fun src off -> Config.of_words ~template:init src off);
  }

let run ?(options = default_options) ?cancel u =
  Mdp_obs.Metrics.span "generate/run" @@ fun () ->
  let compiled = compile u options in
  let stamp = fresh_stamp () in
  let readable_words = readable_rows u options in
  let step = make_step u options ~stamp ~compiled ~readable_words in
  let init = Config.initial u in
  Plts.explore ~max_states:options.max_states ?cancel
    ~packing:(config_packer init) ?mem_budget:options.mem_budget
    ?spill_dir:options.spill_dir ~init ~step ()
