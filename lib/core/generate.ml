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
   time). [word_flow] lowers them further to masks over packed words. *)
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

(* ----- what a policy edit changes ----- *)

type policy_changes = {
  pc_u : Universe.t;
  pc_compiled_old : compiled_flow list;
  pc_flows : (compiled_flow option * compiled_flow option) list;
  pc_reads : (int * int * int list * int list) list;
}

let same_flow a b =
  Action.equal a.cf_action b.cf_action
  && a.cf_guard = b.cf_guard
  && Bitset.equal a.cf_prereqs b.cf_prereqs
  && a.cf_has_vars = b.cf_has_vars
  && a.cf_store_write = b.cf_store_write
  && a.cf_could_vars = b.cf_could_vars

(* The policy enters exploration in three places: the compiled flows
   (effective fields, guards, could-readers), the readable rows of
   potential reads and the deleter and reader sets of potential
   deletes. A store only ever holds fields some compiled flow writes
   into it, so a permission on any other field of the store is never
   read while exploring. Compare exactly those inputs, masked by the
   fields written under either policy. *)
type compiled_policy = {
  cp_u : Universe.t;
  cp_options : options;
  cp_flows : compiled_flow list;
}

let compile_policy u options =
  { cp_u = u; cp_options = options; cp_flows = compile u options }

let policy_changes before ~u =
  let u_old = before.cp_u and options = before.cp_options in
  let old_flows = before.cp_flows and new_flows = compile u options in
  (* both lists ascend by flow index *)
  let rec align acc olds news =
    match (olds, news) with
    | [], [] -> List.rev acc
    | o :: os, n :: ns when o.cf_index = n.cf_index ->
      align (if same_flow o n then acc else (Some o, Some n) :: acc) os ns
    | o :: os, n :: _ when o.cf_index < n.cf_index ->
      align ((Some o, None) :: acc) os news
    | o :: os, [] -> align ((Some o, None) :: acc) os []
    | _, n :: ns -> align ((None, Some n) :: acc) olds ns
  in
  let flows = align [] old_flows new_flows in
  let ns = Universe.nstores u and nf = Universe.nfields u in
  let written = Array.init ns (fun _ -> Bitset.create nf) in
  List.iter
    (fun cf ->
      match cf.cf_store_write with
      | Some (s, fis) -> List.iter (Bitset.set written.(s)) fis
      | None -> ())
    (old_flows @ new_flows);
  let reads = ref [] in
  if options.potential_reads then
    for a = Universe.nactors u - 1 downto 0 do
      for s = ns - 1 downto 0 do
        let ro = Universe.readable_bits u_old ~actor:a ~store:s
        and rn = Universe.readable_bits u ~actor:a ~store:s in
        if not (Bitset.equal ro rn) then
          match
            Bitset.fold
              (fun f (lost, gained) ->
                match (Bitset.get ro f, Bitset.get rn f) with
                | true, false -> (f :: lost, gained)
                | false, true -> (lost, f :: gained)
                | _ -> (lost, gained))
              written.(s) ([], [])
          with
          | [], [] -> ()
          | lost, gained ->
            reads := (a, s, List.rev lost, List.rev gained) :: !reads
      done
    done;
  let deletes =
    options.potential_deletes
    && List.exists
         (fun s ->
           let fis = Bitset.to_list written.(s) in
           fis <> []
           && (Universe.deleters u_old ~store:s <> Universe.deleters u ~store:s
              || List.exists
                   (fun f ->
                     Universe.readers u_old ~store:s ~field:f
                     <> Universe.readers u ~store:s ~field:f)
                   fis))
         (List.init ns Fun.id)
  in
  if flows = [] && !reads = [] && not deletes then None
  else
    Some
      {
        pc_u = u;
        pc_compiled_old = old_flows;
        pc_flows = flows;
        pc_reads = !reads;
      }

(* The label of a potential read or delete of the fields [fis]
   (ascending indices) of [store] by [actor]. It depends only on (kind,
   actor, store, field set), never on the configuration, so the emitter
   builds each one once per label key. Sharing one [Action.t] across
   transitions is safe: actions are immutable, and no analysis writes an
   explored LTS's labels. *)
let potential_action u ~kind ~actor ~store fis =
  let st = Universe.store_at u store in
  let fields = List.map (Universe.field_at u) fis in
  Action.make ?schema:(schema_label st fields) ~store:st.id ~kind ~fields
    ~actor:(Universe.actor_name u actor) Action.Potential

(* The field indices set in the [ng] group words at [words.(off ..)]
   (bit i of group g is field 63g + i), ascending. *)
let fields_of_words words off ng =
  let bpw = Bitset.bits_per_word in
  let fis = ref [] in
  for g = ng - 1 downto 0 do
    for i = bpw - 1 downto 0 do
      if words.(off + g) land (1 lsl i) <> 0 then fis := ((g * bpw) + i) :: !fis
    done
  done;
  !fis

(* [bits] is the fresh field set packed into one word (bit i = field i). *)
let read_action u ~actor ~store bits =
  potential_action u ~kind:Action.Read ~actor ~store
    (fields_of_words [| bits |] 0 1)

(* The per-(actor, store) readable field sets as single words, the view
   {!Regen}'s arithmetic walk works in; [None] when the model is too
   wide for one word. *)
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

(* ----- the word-level successor function ----- *)

(* Where each bitset of a packed config starts, in [Config.blit_words]
   order: has, could, each store, executed. *)
type layout = {
  l_words : int;
  l_has : int;
  l_could : int;
  l_stores : int array;
  l_exec : int;
}

let layout (init : Config.t) =
  let wc = Bitset.word_count in
  let l_could = wc init.privacy.has in
  let off = ref (l_could + wc init.privacy.could) in
  let l_stores =
    Array.map
      (fun st ->
        let o = !off in
        off := o + wc st;
        o)
      init.stores
  in
  { l_words = Config.nwords init; l_has = 0; l_could; l_stores; l_exec = !off }

(* A sparse word mask: bits [m_bits.(i)] of word [m_idx.(i)]. *)
type mask = { m_idx : int array; m_bits : int array }

(* The mask of the given (bitset offset, bit index) pairs. *)
let mask_of l bits =
  let bpw = Bitset.bits_per_word in
  let dense = Array.make l.l_words 0 in
  List.iter
    (fun (off, i) ->
      let k = off + (i / bpw) in
      dense.(k) <- dense.(k) lor (1 lsl (i mod bpw)))
    bits;
  let idx = List.filter (fun k -> dense.(k) <> 0) (List.init l.l_words Fun.id) in
  { m_idx = Array.of_list idx; m_bits = Array.of_list (List.map (Array.get dense) idx) }

(* A plain loop: a local recursive function would capture [m] and
   [words] in a closure allocated on every call. *)
let mask_holds m words =
  let n = Array.length m.m_idx in
  let i = ref 0 in
  while
    !i < n
    && (let b = Array.unsafe_get m.m_bits !i in
        Array.unsafe_get words (Array.unsafe_get m.m_idx !i) land b = b)
  do
    incr i
  done;
  !i = n

let mask_into m words =
  for i = 0 to Array.length m.m_idx - 1 do
    let k = Array.unsafe_get m.m_idx i in
    Array.unsafe_set words k (Array.unsafe_get words k lor Array.unsafe_get m.m_bits i)
  done

(* A compiled flow over packed words: enabled when its executed bit is
   clear and the parent holds every [wf_guard] bit (source guard, plus
   the prerequisite flows under [Strict]); its successor is the parent
   with every [wf_fire] bit set. *)
type word_flow = { wf_exec : mask; wf_guard : mask; wf_fire : mask }

let word_flow l options cf =
  let at off = List.map (fun i -> (off, i)) in
  let guard =
    match cf.cf_guard with
    | Always -> []
    | Actor_has vars -> at l.l_has vars
    | Store_holds (si, fis) -> at l.l_stores.(si) fis
  in
  let prereqs =
    match options.ordering with
    | Data_driven -> []
    | Strict -> at l.l_exec (Bitset.to_list cf.cf_prereqs)
  in
  let store_write =
    match cf.cf_store_write with
    | None -> []
    | Some (si, fis) -> at l.l_stores.(si) fis
  in
  {
    wf_exec = mask_of l [ (l.l_exec, cf.cf_index) ];
    wf_guard = mask_of l (guard @ prereqs);
    wf_fire =
      mask_of l
        (((l.l_exec, cf.cf_index) :: at l.l_has cf.cf_has_vars)
        @ at l.l_could cf.cf_could_vars @ store_write);
  }

(* Fresh field words keyed by a multiplicative mix: cheaper than the
   generic [Hashtbl.hash], and it spreads the high field bits. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 20
end)


(* Label keys of potential transitions, looked up by their field-group
   words (a read's fresh fields, a deleted store's contents): one [Itbl]
   level per 63-field group, the last level holding the key. A model of
   at most 63 fields costs one probe. *)
type trie = Key of int | Next of trie Itbl.t

(* The run's successor function as a word emitter for [Lts.explore],
   with its label table. Label keys are dense: the compiled flows take
   keys [0 .. nflows - 1], and each distinct potential action gets the
   next free key the first time it is emitted.

   Emission order is the row order of every state: enabled flows in
   compiled order, then potential reads — actors and stores descending,
   granular bits highest first — then potential deletes — stores
   descending, each store's deleters in reverse. Every successor is
   written as words: a read is one masked AND per (actor, store) and
   63-field group, a delete clears the store's words and rebuilds the
   [could] block from per-(store, field) reader masks. *)
let emitter u options ~compiled init =
  let l = layout init in
  let w = l.l_words in
  let flows = Array.of_list (List.map (word_flow l options) compiled) in
  let labels = ref (Array.of_list (List.map (fun cf -> cf.cf_action) compiled)) in
  let nkeys = ref (Array.length flows) in
  let new_key action =
    let k = !nkeys in
    if k = Array.length !labels then begin
      let bigger = Array.make (max 16 (2 * k)) action in
      Array.blit !labels 0 bigger 0 k;
      labels := bigger
    end;
    !labels.(k) <- action;
    nkeys := k + 1;
    k
  in
  let label_of k = !labels.(k) in
  let na = Universe.nactors u and ns = Universe.nstores u in
  let nf = Universe.nfields u in
  let bpw = Bitset.bits_per_word in
  (* Field groups: a store's words, and the windows of an actor's [has]
     slice. *)
  let ng = max 1 ((nf + bpw - 1) / bpw) in
  let glen = Array.init ng (fun g -> Int.min bpw (nf - (g * bpw))) in
  let rec trie_key tbl words off g ~kind ~actor ~store =
    match Itbl.find tbl words.(off + g) with
    | Key k -> k
    | Next t -> trie_key t words off (g + 1) ~kind ~actor ~store
    | exception Not_found ->
      Itbl.add tbl words.(off + g)
        (if g = ng - 1 then
           Key
             (new_key
                (potential_action u ~kind ~actor ~store
                   (fields_of_words words off ng)))
         else Next (Itbl.create 8));
      trie_key tbl words off g ~kind ~actor ~store
  in
  (* Potential reads. [readable] holds each (actor, store) permission
     row as [ng] group words; granular reads key on the field index. *)
  let readable = Array.make (na * ns * ng) 0 in
  for a = 0 to na - 1 do
    for s = 0 to ns - 1 do
      ignore
        (Bitset.blit_words
           (Universe.readable_bits u ~actor:a ~store:s)
           readable
           (((a * ns) + s) * ng)
          : int)
    done
  done;
  let read_keys = Array.init (na * ns) (fun _ -> Itbl.create 8) in
  let field_keys =
    Array.make (if options.granular_reads then na * ns * nf else 0) (-1)
  in
  let has = Array.make ng 0 and fresh = Array.make ng 0 in
  let reads parent cand emit =
    for a = na - 1 downto 0 do
      for g = 0 to ng - 1 do
        let pos = (a * nf) + (g * bpw) in
        let k = l.l_has + (pos / bpw) and off = pos mod bpw in
        let lo = parent.(k) lsr off in
        (* Bits past the group are masked off by the readable row. *)
        has.(g) <-
          (if off + glen.(g) <= bpw then lo
           else lo lor (parent.(k + 1) lsl (bpw - off)))
      done;
      for s = ns - 1 downto 0 do
        let pair = (a * ns) + s in
        let r = pair * ng and st = l.l_stores.(s) in
        let any = ref 0 in
        for g = 0 to ng - 1 do
          let x = readable.(r + g) land parent.(st + g) land lnot has.(g) in
          fresh.(g) <- x;
          any := !any lor x
        done;
        if !any <> 0 then
          if options.granular_reads then
            for g = ng - 1 downto 0 do
              for i = glen.(g) - 1 downto 0 do
                if fresh.(g) land (1 lsl i) <> 0 then begin
                  let f = (g * bpw) + i in
                  let fk = (pair * nf) + f in
                  if field_keys.(fk) < 0 then
                    field_keys.(fk) <-
                      new_key
                        (potential_action u ~kind:Action.Read ~actor:a ~store:s
                           [ f ]);
                  Array.blit parent 0 cand 0 w;
                  let v = (a * nf) + f in
                  let k = l.l_has + (v / bpw) in
                  cand.(k) <- cand.(k) lor (1 lsl (v mod bpw));
                  emit field_keys.(fk)
                end
              done
            done
          else begin
            let key =
              trie_key read_keys.(pair) fresh 0 0 ~kind:Action.Read ~actor:a
                ~store:s
            in
            Array.blit parent 0 cand 0 w;
            for g = 0 to ng - 1 do
              let pos = (a * nf) + (g * bpw) in
              let k = l.l_has + (pos / bpw) and off = pos mod bpw in
              (* [lsl] drops the bits past the word, which the next word
                 takes. *)
              cand.(k) <- cand.(k) lor (fresh.(g) lsl off);
              if off + glen.(g) > bpw then
                cand.(k + 1) <- cand.(k + 1) lor (fresh.(g) lsr (bpw - off))
            done;
            emit key
          end
      done
    done
  in
  (* Potential deletes. [reader.((s * nf) + f)] sets the [could] bits of
     every actor the policy lets read field [f] in store [s]. *)
  let reader =
    if not options.potential_deletes then [||]
    else
      Array.init (ns * nf) (fun i ->
          let s = i / nf and f = i mod nf in
          mask_of l
            (List.map
               (fun a -> (l.l_could, Universe.var u ~actor:a ~field:f))
               (Universe.readers u ~store:s ~field:f)))
  in
  let deleters =
    Array.init ns (fun s ->
        Array.of_list (List.rev (Universe.deleters u ~store:s)))
  in
  let delete_keys = Array.map (Array.map (fun _ -> Itbl.create 8)) deleters in
  let ncould = Bitset.word_count init.privacy.could in
  let cleared = Array.make w 0 in
  let deletes parent cand emit =
    for s = ns - 1 downto 0 do
      let st = l.l_stores.(s) in
      let held = ref 0 in
      for g = 0 to ng - 1 do
        held := !held lor parent.(st + g)
      done;
      if !held <> 0 && Array.length deleters.(s) > 0 then begin
        (* One successor for every deleter: the store emptied, and every
           [could] bit recomputed from the remaining contents — an actor
           could identify a field iff some store still holds it and the
           policy lets the actor read it there. *)
        Array.blit parent 0 cleared 0 w;
        Array.fill cleared st ng 0;
        Array.fill cleared l.l_could ncould 0;
        for s' = 0 to ns - 1 do
          for g = 0 to ng - 1 do
            let x = cleared.(l.l_stores.(s') + g) in
            for i = 0 to glen.(g) - 1 do
              if x land (1 lsl i) <> 0 then
                mask_into reader.((s' * nf) + (g * bpw) + i) cleared
            done
          done
        done;
        Array.iteri
          (fun d a ->
            let key =
              trie_key delete_keys.(s).(d) parent st 0 ~kind:Action.Delete
                ~actor:a ~store:s
            in
            Array.blit cleared 0 cand 0 w;
            emit key)
          deleters.(s)
      end
    done
  in
  let step_words parent cand emit =
    for key = 0 to Array.length flows - 1 do
      let wf = flows.(key) in
      if (not (mask_holds wf.wf_exec parent)) && mask_holds wf.wf_guard parent
      then begin
        Array.blit parent 0 cand 0 w;
        mask_into wf.wf_fire cand;
        emit key
      end
    done;
    if options.potential_reads then reads parent cand emit;
    if options.potential_deletes then deletes parent cand emit
  in
  (label_of, step_words)

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
  let init = Config.initial u in
  let label_of, step_words =
    emitter u options ~compiled:(compile u options) init
  in
  Plts.explore ~max_states:options.max_states ?cancel
    ~packing:(config_packer init) ?mem_budget:options.mem_budget
    ?spill_dir:options.spill_dir ~init ~label_of ~step_words ()
