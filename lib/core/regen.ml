open Mdp_prelude

(* Cone-scoped what-if answers: the region-granular what-if step, read
   off the per-store cones of the explored LTS's edge rows.

   A pure ACL revocation can only *shrink* the model: deny-overrides
   means [Policy.allows] flips true->false, so effective flow fields
   shrink, fully denied flows drop out, and potential-read field sets
   shrink. No transition appears in the edited model at a state where
   the previous run had none — which makes the edited successor row of
   every previously explored state a *pointwise substitution* of the old
   row:

   - flows whose compiled form is unchanged keep their old entry;
   - flows whose effective fields changed while guard and prereqs stayed
     equal fire the new compiled flow at the old position (creates:
     their guard is [Always], so enabledness cannot move);
   - fully denied flows drop their entry;
   - a revoked (actor, store) potential-read group is recomputed from
     the new readable word, replacing the old group's consecutive block.

   Any old state carrying an affected transition has a class-[s]
   outgoing edge for an affected store [s], so it is in [s]'s cone —
   the states with such an edge. {!index} classifies each interned
   label once and marks every class's cone in one row pass per base;
   a walk ORs the affected classes' cones, so the per-state test for
   "does this row need substitution" is a bitset probe.

   {!walk} is the timed what-if path. For a Read/Write revocation a
   finding's level is a pure function of its label (impact from the
   profile and the label's actor/fields; likelihood from provenance,
   deleters — untouched by Read/Write edits — and diagram-only rogue
   candidates), so the sweep only needs the set of distinct findable
   labels reachable in the edited model. One implementation collects
   it: an int-BFS over the old edge rows that never materialises a
   configuration. When that walk declines (region or state count wider
   than a word, a growing substitution) the labels are read off a cold
   exploration of the edited model instead: re-exploring with the old
   LTS's untouched rows copied over measured slower than a cold
   [Generate.run] (docs/PERFORMANCE.md). *)

type patch = {
  rp_u : Universe.t;  (* the edited universe *)
  rp_options : Generate.options;
  rp_compiled_old : Generate.compiled_flow list;
  rp_readable : int array array;  (* [||] when potential reads are off *)
  rp_flow_sub : (string * int, Generate.compiled_flow option) Hashtbl.t;
      (* (service, order) of an affected flow -> substitute or drop *)
  rp_read_drops : int;
      (* the fields some shrunk readable pair lost, as one word *)
  rp_classes : int list;  (* affected store classes, deduplicated *)
}

let flow_key (cf : Generate.compiled_flow) =
  match cf.cf_action.Action.provenance with
  | Action.From_flow { service; order } -> (service, order)
  | _ -> invalid_arg "Regen.flow_key: flow action without flow provenance"

(* Substitution is exact only when the flow's enabledness is untouched:
   equal guard (creates are [Always]-guarded; a read flow's guard covers
   its effective fields, so a shrunk read never qualifies — a weakened
   guard could enable the flow at states outside the cones) and equal
   Strict prereqs. *)
let substitutable (a : Generate.compiled_flow) (b : Generate.compiled_flow) =
  a.cf_guard = b.cf_guard && Bitset.equal a.cf_prereqs b.cf_prereqs

let make_patch (options : Generate.options) (c : Generate.policy_changes) =
  let u = c.pc_u in
  let readable =
    if options.potential_deletes then
      (* Potential deletes recompute could-bits from global reader sets
         per transition; no label-local substitution exists for them. *)
      None
    else if not options.potential_reads then Some [||]
    else
      (* [None] when the model is too wide for the word-packed read path *)
      Generate.readable_rows u options
  in
  match readable with
  | None -> None
  | Some readable -> (
    let exception Decline in
    let classes = ref [] in
    let add_class s =
      if s < 0 then raise Decline
      else if not (List.mem s !classes) then classes := s :: !classes
    in
    let flow_sub = Hashtbl.create 8 in
    let sub (cf_old : Generate.compiled_flow) cf_new =
      add_class (Generate.store_classifier u cf_old.cf_action);
      Hashtbl.replace flow_sub (flow_key cf_old) cf_new
    in
    try
      List.iter
        (function
          | Some cf_old, Some cf_new when substitutable cf_old cf_new ->
            sub cf_old (Some cf_new)
          | Some cf_old, None -> (* fully denied: the entry drops *)
            sub cf_old None
          | _ ->
            (* a moved guard, or a flow present only in the edited
               model, can fire at states outside the cones *)
            raise Decline)
        c.pc_flows;
      let read_drops =
        List.fold_left
          (fun w (_, s, lost, gained) ->
            (* a grown readable set could enable fresh reads anywhere *)
            if gained <> [] then raise Decline;
            add_class s;
            List.fold_left (fun w f -> w lor (1 lsl f)) w lost)
          0 c.pc_reads
      in
      Some
        {
          rp_u = u;
          rp_options = options;
          rp_compiled_old = c.pc_compiled_old;
          rp_readable = readable;
          rp_flow_sub = flow_sub;
          rp_read_drops = read_drops;
          rp_classes = !classes;
        }
    with Decline -> None)

let bit bs i =
  Char.code (Bytes.unsafe_get bs (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit bs i =
  Bytes.unsafe_set bs (i lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bs (i lsr 3)) lor (1 lsl (i land 7))))

(* ----- the base index: what every walk over one base LTS shares ----- *)

type index = {
  ix_lts : Plts.t;
  ix_labels : Action.t array;  (* interned labels, by label id *)
  ix_cones : Bytes.t array;
      (* per store class: the states with an edge of that class *)
  ix_root_stores : int array;
      (* the root's fields per store, one word each; [||] when the model
         is too wide for the pair walk *)
  ix_root_has : int array;  (* the root's has-fields per actor, likewise *)
  ix_row_start : int array;
      (* edge rows as flat arrays: state [q]'s edges are
         [ix_edges.(ix_row_start.(q) .. ix_row_start.(q + 1) - 1)], each
         [(label id lsl ix_dst_bits) lor dst]; [||] over a spilled LTS,
         whose rows are read from it *)
  ix_edges : int array;
  ix_dst_bits : int;
}

let bits_for n =
  let b = ref 0 in
  while (n - 1) lsr !b <> 0 do
    incr b
  done;
  !b

let iter_row ix q f =
  if Array.length ix.ix_row_start = 0 then
    Plts.iter_successors_lid ix.ix_lts q f
  else begin
    let mask = (1 lsl ix.ix_dst_bits) - 1 in
    for e = ix.ix_row_start.(q) to ix.ix_row_start.(q + 1) - 1 do
      let w = Array.unsafe_get ix.ix_edges e in
      f (w lsr ix.ix_dst_bits) (w land mask)
    done
  end

let index u lts =
  let n = Plts.num_states lts in
  let labels = Option.get (Plts.interned_labels lts) in
  let ns = Universe.nstores u and na = Universe.nactors u in
  let nf = Universe.nfields u in
  let dst_bits = bits_for n in
  let flat =
    Plts.spill_stats lts = None
    && dst_bits + bits_for (Array.length labels) < Sys.int_size - 1
  in
  let row_start = if flat then Array.make (n + 1) 0 else [||] in
  let edges =
    if flat then Array.make (Plts.num_transitions lts) 0 else [||]
  in
  let classes = Array.map (Generate.store_classifier u) labels in
  let cones = Array.init ns (fun _ -> Bytes.make ((n + 7) / 8) '\000') in
  let e = ref 0 in
  for q = 0 to n - 1 do
    Plts.iter_successors_lid lts q (fun lid dst ->
        let c = classes.(lid) in
        if c >= 0 then set_bit cones.(c) q;
        if flat then begin
          edges.(!e) <- (lid lsl dst_bits) lor dst;
          incr e
        end);
    if flat then row_start.(q + 1) <- !e
  done;
  let root_stores, root_has =
    if nf >= Sys.int_size - 1 then ([||], [||])
    else begin
      (* state 0 is the initial configuration: built, not decoded *)
      let cfg0 = Config.initial u in
      let word holds =
        let w = ref 0 in
        for f = 0 to nf - 1 do
          if holds f then w := !w lor (1 lsl f)
        done;
        !w
      in
      ( Array.init ns (fun s -> word (Bitset.get cfg0.Config.stores.(s))),
        Array.init na (fun a ->
            word (fun f ->
                Bitset.get cfg0.Config.privacy.Privacy_state.has
                  (Universe.var u ~actor:a ~field:f))) )
    end
  in
  {
    ix_lts = lts;
    ix_labels = labels;
    ix_cones = cones;
    ix_root_stores = root_stores;
    ix_root_has = root_has;
    ix_row_start = row_start;
    ix_edges = edges;
    ix_dst_bits = dst_bits;
  }

(* ----- timed walk: distinct findable labels of the edited model ----- *)

(* Arithmetic pair walk: the packed fast path.

   A shrinking edit only ever *clears* bits relative to the old run, and
   the cleared bits live in a small region: the dropped fields' store
   bits (every store) and privacy.has bits (every actor). Could-bits are
   written but never read by any guard, read or label, so futures that
   differ only there are bisimilar for label collection and the walk
   quotients them away.

   Every configuration reachable in the edited model then differs from a
   unique old state — its {e twin}, reached by the same transition
   sequence — only inside the region, and only downward (bits cleared,
   never added). The walk never materialises configurations: a fresh
   state is the pair (twin's old id, assignment of the twin's region
   bits that survive), and successors come from the twin's stored edge
   row by integer arithmetic:

   - a flow edge survives iff the region part of its guard is still
     assigned (the rest held at the twin and region bits only shrink,
     so no flow appears that the twin lacked); its writes re-set region
     bits symmetrically on both sides;
   - a potential-read group's fresh set is recomputed by word ops from
     the assignment (readable & contents & ~has per dropped field), and
     the one negative dependency — clearing has-bits can {e enable}
     reads the twin never had — is covered by scanning the few
     region-relevant (actor, store) pairs not present in the twin's row.

   Pass 1 fills the twins' region truth in one sweep over the old graph
   (BFS numbering: parents precede children); the affected states —
   those with an edge whose label touches an affected store — are the
   union of the index's cones. Pass 2 is the hybrid BFS.
   Returns [None] when it declines (growing substitution, region or
   state count too wide for one word), [Some None] on budget abort. *)
let walk_fast ix p =
  let labels = ix.ix_labels in
  let u = p.rp_u and options = p.rp_options in
  let nf = Universe.nfields u in
  let ns = Universe.nstores u in
  let na = Universe.nactors u in
  let n = Plts.num_states ix.ix_lts in
  let exception Ineligible in
  try
    if nf >= Sys.int_size - 1 then raise Ineligible;
    let old_by_key = Hashtbl.create 16 in
    List.iter
      (fun (cf : Generate.compiled_flow) ->
        Hashtbl.replace old_by_key (flow_key cf) cf)
      p.rp_compiled_old;
    (* ---- the dropped-field region ---- *)
    let df_mask = ref p.rp_read_drops in
    let add_field f = df_mask := !df_mask lor (1 lsl f) in
    Hashtbl.iter
      (fun key sub ->
        let old_cf =
          match Hashtbl.find_opt old_by_key key with
          | Some cf -> cf
          | None -> raise Ineligible
        in
        match (sub : Generate.compiled_flow option) with
        | None ->
          List.iter
            (fun v -> add_field (Universe.var_field u v))
            old_cf.Generate.cf_has_vars;
          (match old_cf.cf_store_write with
          | None -> ()
          | Some (_, fis) -> List.iter add_field fis)
        | Some new_cf ->
          (* pure shrink required: every new write must be an old one
             (grants are answered from a cold exploration) *)
          if
            List.exists
              (fun v -> not (List.mem v old_cf.Generate.cf_has_vars))
              new_cf.Generate.cf_has_vars
          then raise Ineligible;
          List.iter
            (fun v ->
              if not (List.mem v new_cf.Generate.cf_has_vars) then
                add_field (Universe.var_field u v))
            old_cf.Generate.cf_has_vars;
          (match (old_cf.cf_store_write, new_cf.cf_store_write) with
          | None, None -> ()
          | Some (so, fo), Some (sn, fn) when so = sn ->
            if List.exists (fun f -> not (List.mem f fo)) fn then
              raise Ineligible;
            List.iter (fun f -> if not (List.mem f fn) then add_field f) fo
          | Some (_, fo), None -> List.iter add_field fo
          | _ -> raise Ineligible))
      p.rp_flow_sub;
    let df_mask = !df_mask in
    let df_arr =
      let acc = ref [] in
      for f = nf - 1 downto 0 do
        if df_mask land (1 lsl f) <> 0 then acc := f :: !acc
      done;
      Array.of_list !acc
    in
    let dfn = Array.length df_arr in
    let df_pos = Array.make (max nf 1) (-1) in
    Array.iteri (fun k f -> df_pos.(f) <- k) df_arr;
    let rbits = (ns + na) * dfn in
    let qbits = bits_for n in
    if rbits + qbits > Sys.int_size - 2 then raise Ineligible;
    let sbit s k = (s * dfn) + k in
    let hbit a k = (ns * dfn) + (a * dfn) + k in
    let reg_of_has_fields a fword =
      let r = ref 0 in
      for k = 0 to dfn - 1 do
        if fword land (1 lsl df_arr.(k)) <> 0 then
          r := !r lor (1 lsl hbit a k)
      done;
      !r
    in
    let reg_of_flow_writes (cf : Generate.compiled_flow) =
      let r = ref 0 in
      List.iter
        (fun v ->
          let k = df_pos.(Universe.var_field u v) in
          if k >= 0 then r := !r lor (1 lsl hbit (Universe.var_actor u v) k))
        cf.cf_has_vars;
      (match cf.cf_store_write with
      | None -> ()
      | Some (s, fis) ->
        List.iter
          (fun f ->
            let k = df_pos.(f) in
            if k >= 0 then r := !r lor (1 lsl sbit s k))
          fis);
      !r
    in
    let reg_of_guard = function
      | Generate.Always -> 0
      | Generate.Actor_has vars ->
        List.fold_left
          (fun r v ->
            let k = df_pos.(Universe.var_field u v) in
            if k >= 0 then r lor (1 lsl hbit (Universe.var_actor u v) k)
            else r)
          0 vars
      | Generate.Store_holds (s, fis) ->
        List.fold_left
          (fun r f ->
            let k = df_pos.(f) in
            if k >= 0 then r lor (1 lsl sbit s k) else r)
          0 fis
    in
    (* (actor, store) pairs whose readable set meets the region: the
       only places a read can exist at a pair but not at its twin *)
    let region_pairs = ref [] in
    let npairs = ref 0 in
    if options.Generate.potential_reads then
      for a = 0 to na - 1 do
        for s = 0 to ns - 1 do
          let rdf = p.rp_readable.(a).(s) land df_mask in
          if rdf <> 0 then begin
            region_pairs := (a, s, !npairs, rdf) :: !region_pairs;
            incr npairs
          end
        done
      done;
    let region_pairs = List.rev !region_pairs in
    if !npairs > Sys.int_size - 2 then raise Ineligible;
    (* ---- per-interned-label classification ---- *)
    let nl = Array.length labels in
    let kind = Array.make (max nl 1) 0 in
    (* 0 keep flow / 1 substitute / 2 drop / 3 potential read *)
    let guard_reg = Array.make (max nl 1) 0 in
    let wr_new_reg = Array.make (max nl 1) 0 in
    let wr_old_reg = Array.make (max nl 1) 0 in
    let subst = Array.make (max nl 1) None in
    let read_actor = Array.make (max nl 1) (-1) in
    let read_store = Array.make (max nl 1) (-1) in
    let read_fields = Array.make (max nl 1) 0 in
    let read_rdf = Array.make (max nl 1) 0 in
    let read_k = Array.make (max nl 1) (-1) in
    let read_pair = Array.make (max nl 1) (-1) in
    let pair_id = Array.make (max 1 (na * ns)) (-1) in
    List.iter
      (fun (a, s, pid, _) -> pair_id.((a * ns) + s) <- pid)
      region_pairs;
    Array.iteri
      (fun lid (a : Action.t) ->
        match a.Action.provenance with
        | Action.From_flow { service; order } ->
          let key = (service, order) in
          let old_cf =
            match Hashtbl.find_opt old_by_key key with
            | Some cf -> cf
            | None -> raise Ineligible
          in
          wr_old_reg.(lid) <- reg_of_flow_writes old_cf;
          (match Hashtbl.find_opt p.rp_flow_sub key with
          | None ->
            guard_reg.(lid) <- reg_of_guard old_cf.cf_guard;
            wr_new_reg.(lid) <- wr_old_reg.(lid)
          | Some None -> kind.(lid) <- 2
          | Some (Some cf) ->
            kind.(lid) <- 1;
            subst.(lid) <- Some cf;
            guard_reg.(lid) <- reg_of_guard cf.cf_guard;
            wr_new_reg.(lid) <- reg_of_flow_writes cf)
        | Action.Potential -> (
          match (a.Action.kind, a.Action.store) with
          | Action.Read, Some sid ->
            let ai = Universe.actor_index u a.Action.actor in
            let si = Universe.store_index u sid in
            let fw =
              List.fold_left
                (fun w f -> w lor (1 lsl Universe.field_index u f))
                0 a.Action.fields
            in
            wr_old_reg.(lid) <- reg_of_has_fields ai (fw land df_mask);
            if
              options.Generate.granular_reads
              && fw land p.rp_readable.(ai).(si) = 0
            then kind.(lid) <- 2 (* revoked singleton: always drops *)
            else begin
              kind.(lid) <- 3;
              read_actor.(lid) <- ai;
              read_store.(lid) <- si;
              read_fields.(lid) <- fw;
              read_rdf.(lid) <- p.rp_readable.(ai).(si) land df_mask;
              read_pair.(lid) <- pair_id.((ai * ns) + si);
              if options.Generate.granular_reads then begin
                let f = ref 0 in
                while fw lsr !f <> 1 do
                  incr f
                done;
                read_k.(lid) <- df_pos.(!f)
              end
            end
          | _ -> raise Ineligible))
      labels;
    (* ---- pass 1: region truth of every old state; the affected
       states are the union of the affected classes' cones ---- *)
    let affected = Bytes.make ((n + 7) / 8) '\000' in
    List.iter
      (fun c ->
        let cone = ix.ix_cones.(c) in
        for i = 0 to Bytes.length affected - 1 do
          Bytes.unsafe_set affected i
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get affected i)
               lor Char.code (Bytes.unsafe_get cone i)))
        done)
      p.rp_classes;
    let twin_reg = Array.make n (-1) in
    (let r = ref 0 in
     for k = 0 to dfn - 1 do
       let fb = 1 lsl df_arr.(k) in
       for s = 0 to ns - 1 do
         if ix.ix_root_stores.(s) land fb <> 0 then
           r := !r lor (1 lsl sbit s k)
       done;
       for a = 0 to na - 1 do
         if ix.ix_root_has.(a) land fb <> 0 then r := !r lor (1 lsl hbit a k)
       done
     done;
     twin_reg.(0) <- !r);
    for q = 0 to n - 1 do
      let rq = twin_reg.(q) in
      if rq >= 0 then
        iter_row ix q (fun lid dst ->
            if twin_reg.(dst) < 0 then
              twin_reg.(dst) <- rq lor wr_old_reg.(lid))
    done;
    (* ---- pass 2: hybrid BFS over old ids and (twin, assignment) ---- *)
    let visited = Bytes.make ((n + 7) / 8) '\000' in
    let pair_seen = Hashtbl.create 1024 in
    let old_queue = Queue.create () and pair_queue = Queue.create () in
    let reached = ref 0 in
    let over_budget () = !reached > options.Generate.max_states in
    let present = Array.make (max nl 1) false in
    (* Old labels whose substitute fired: one flow each, so their
       substitutes are distinct. *)
    let subst_fired = Array.make (max nl 1) false in
    (* Recomputed read groups, labelled once each after the walk. *)
    let fresh_reads = Hashtbl.create 32 in
    let emit_read a s bits = Hashtbl.replace fresh_reads (a, s, bits) () in
    let visit_old q =
      if not (bit visited q) then begin
        set_bit visited q;
        incr reached;
        Queue.push q old_queue
      end
    in
    let visit_pair q asn =
      let key = (q lsl rbits) lor asn in
      if not (Hashtbl.mem pair_seen key) then begin
        Hashtbl.replace pair_seen key ();
        incr reached;
        Queue.push key pair_queue
      end
    in
    let resolve dst asn =
      let t = twin_reg.(dst) in
      if t < 0 then raise Ineligible
      else if asn = t then visit_old dst
      else visit_pair dst asn
    in
    let get_subst lid =
      match subst.(lid) with
      | Some (cf : Generate.compiled_flow) -> cf
      | None -> assert false
    in
    let fresh_df a s asn rdf =
      let r = ref 0 in
      for k = 0 to dfn - 1 do
        let fb = 1 lsl df_arr.(k) in
        if
          rdf land fb <> 0
          && asn land (1 lsl sbit s k) <> 0
          && asn land (1 lsl hbit a k) = 0
        then r := !r lor fb
      done;
      !r
    in
    (* old ids: truth = twin; substituted rows re-point edges by the
       same arithmetic, untouched rows are copied wholesale *)
    let process_old q =
      if bit affected q then begin
        let rq = twin_reg.(q) in
        if rq < 0 then raise Ineligible;
        iter_row ix q (fun lid dst ->
            match kind.(lid) with
            | 0 ->
              present.(lid) <- true;
              visit_old dst
            | 2 -> ()
            | 1 ->
              subst_fired.(lid) <- true;
              resolve dst (rq lor wr_new_reg.(lid))
            | _ ->
              let a = read_actor.(lid) and s = read_store.(lid) in
              let fw = read_fields.(lid) in
              let fresh_new = fw land p.rp_readable.(a).(s) in
              if fresh_new = fw then begin
                present.(lid) <- true;
                visit_old dst
              end
              else if fresh_new <> 0 then begin
                emit_read a s fresh_new;
                resolve dst (rq lor reg_of_has_fields a (fresh_new land df_mask))
              end)
      end
      else
        iter_row ix q (fun lid dst ->
            present.(lid) <- true;
            visit_old dst)
    in
    let process_pair key =
      let q = key lsr rbits in
      let asn = key land ((1 lsl rbits) - 1) in
      let tq = twin_reg.(q) in
      let seen_pairs = ref 0 in
      iter_row ix q (fun lid dst ->
          match kind.(lid) with
          | 0 ->
            if guard_reg.(lid) land lnot asn = 0 then begin
              present.(lid) <- true;
              resolve dst (asn lor wr_new_reg.(lid))
            end
          | 2 -> ()
          | 1 ->
            if guard_reg.(lid) land lnot asn = 0 then begin
              subst_fired.(lid) <- true;
              resolve dst (asn lor wr_new_reg.(lid))
            end
          | _ ->
            let a = read_actor.(lid) and s = read_store.(lid) in
            if options.Generate.granular_reads then begin
              let k = read_k.(lid) in
              if k < 0 then begin
                (* field outside the region: fresh here iff fresh at the
                   twin, and the has-bit it sets is not tracked *)
                present.(lid) <- true;
                resolve dst asn
              end
              else if
                asn land (1 lsl sbit s k) <> 0
                && asn land (1 lsl hbit a k) = 0
              then begin
                present.(lid) <- true;
                resolve dst (asn lor (1 lsl hbit a k))
              end
            end
            else begin
              let pid = read_pair.(lid) in
              if pid >= 0 then seen_pairs := !seen_pairs lor (1 lsl pid);
              let fw = read_fields.(lid) in
              let fdf =
                if read_rdf.(lid) = 0 then 0
                else fresh_df a s asn read_rdf.(lid)
              in
              let fresh_true = fw land lnot df_mask lor fdf in
              if fresh_true = fw then begin
                present.(lid) <- true;
                resolve dst (asn lor reg_of_has_fields a fdf)
              end
              else if fresh_true <> 0 then begin
                emit_read a s fresh_true;
                resolve dst (asn lor reg_of_has_fields a fdf)
              end
            end);
      (* reads enabled here but absent from the twin's row: the twin had
         already identified the field (has-bit set), this pair has not *)
      if options.Generate.granular_reads then
        List.iter
          (fun (a, s, _, rdf) ->
            for k = 0 to dfn - 1 do
              let fb = 1 lsl df_arr.(k) in
              if
                rdf land fb <> 0
                && asn land (1 lsl sbit s k) <> 0
                && asn land (1 lsl hbit a k) = 0
                && tq land (1 lsl hbit a k) <> 0
              then begin
                emit_read a s fb;
                resolve q (asn lor (1 lsl hbit a k))
              end
            done)
          region_pairs
      else
        List.iter
          (fun (a, s, pid, rdf) ->
            if !seen_pairs land (1 lsl pid) = 0 then begin
              let fdf = fresh_df a s asn rdf in
              if fdf <> 0 then begin
                emit_read a s fdf;
                resolve q (asn lor reg_of_has_fields a fdf)
              end
            end)
          region_pairs
    in
    visit_old 0;
    let aborted = ref false in
    while
      (not !aborted)
      && not (Queue.is_empty old_queue && Queue.is_empty pair_queue)
    do
      if not (Queue.is_empty old_queue) then process_old (Queue.pop old_queue)
      else process_pair (Queue.pop pair_queue);
      if over_budget () then aborted := true
    done;
    if !aborted then Some None
    else begin
      let acc = ref [] in
      let add a = if Action.findable a then acc := a :: !acc in
      Hashtbl.iter
        (fun (a, s, bits) () ->
          acc := Generate.read_action u ~actor:a ~store:s bits :: !acc)
        fresh_reads;
      Array.iteri
        (fun lid fired ->
          if fired then add (get_subst lid).Generate.cf_action;
          if present.(lid) then add labels.(lid))
        subst_fired;
      Some (Some !acc)
    end
  with Ineligible -> None

(* Every label an exploration interns sits on at least one transition,
   so the LTS's label table is exactly the reachable label set. *)
let cold_labels options u =
  let lts = Generate.run ~options u in
  let labels = Option.get (Plts.interned_labels lts) in
  Plts.drop_spill lts;
  List.filter Action.findable (Array.to_list labels)

(* The timed walk: the pair walk, or — when it declines — the findable
   labels of a cold exploration of the edited model. *)
let walk ix p =
  match walk_fast ix p with
  | Some result -> result
  | None -> (
    Mdp_obs.Metrics.incr "whatif/cone_walk_declined";
    match cold_labels p.rp_options p.rp_u with
    | labels -> Some labels
    | exception Mdp_lts.Lts.Too_many_states _ -> None)
