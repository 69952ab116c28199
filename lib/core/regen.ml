open Mdp_prelude

(* Cone-scoped what-if answers: the region-granular what-if step, read
   off the explored LTS's edge rows.

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

   The substitution only touches rows with an edge on an affected store
   (its cone); every other row comes out of the same arithmetic
   unchanged, so the walk applies it to every row it reaches. {!index}
   flattens the rows and records every state's field holders in one
   row pass per base.

   {!walk} is the timed what-if path. For a Read/Write revocation a
   finding's level is a pure function of its label (impact from the
   profile and the label's actor/fields; likelihood from provenance,
   deleters — untouched by Read/Write edits — and diagram-only rogue
   candidates), so the sweep only needs the set of distinct findable
   labels reachable in the edited model. One implementation collects
   it: an int walk over the old edge rows that never materialises a
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
}

type refusal =
  | Potential_deletes
  | Too_wide
  | Guard_moved
  | Flow_added
  | Read_gained
  | Storeless_flow

let refusal_name = function
  | Potential_deletes -> "potential_deletes"
  | Too_wide -> "too_wide"
  | Guard_moved -> "guard_moved"
  | Flow_added -> "flow_added"
  | Read_gained -> "read_gained"
  | Storeless_flow -> "storeless_flow"

let action_key (a : Action.t) =
  match a.Action.provenance with
  | Action.From_flow { service; order } -> (service, order)
  | _ -> invalid_arg "Regen.action_key: flow action without flow provenance"

let flow_key (cf : Generate.compiled_flow) = action_key cf.cf_action

(* Substitution is exact only when the flow's enabledness is untouched:
   equal guard (creates are [Always]-guarded; a read flow's guard covers
   its effective fields, so a shrunk read never qualifies — a weakened
   guard could enable the flow at states outside the cones) and equal
   Strict prereqs. *)
let substitutable (a : Generate.compiled_flow) (b : Generate.compiled_flow) =
  a.cf_guard = b.cf_guard && Bitset.equal a.cf_prereqs b.cf_prereqs

let make_patch (options : Generate.options) (c : Generate.policy_changes) =
  let u = c.pc_u in
  let exception Refused of refusal in
  let refuse r = raise (Refused r) in
  try
    let readable =
      if options.potential_deletes then
        (* Potential deletes recompute could-bits from global reader sets
           per transition; no label-local substitution exists for them. *)
        refuse Potential_deletes
      else if not options.potential_reads then [||]
      else
        match Generate.readable_rows u options with
        | Some rows -> rows
        | None -> refuse Too_wide
    in
    let flow_sub = Hashtbl.create 8 in
    let sub (cf_old : Generate.compiled_flow) cf_new =
      if Generate.store_classifier u cf_old.cf_action < 0 then
        refuse Storeless_flow;
      Hashtbl.replace flow_sub (flow_key cf_old) cf_new
    in
    List.iter
      (function
        | Some cf_old, Some cf_new ->
          (* a moved guard can fire at states outside the cones *)
          if substitutable cf_old cf_new then sub cf_old (Some cf_new)
          else refuse Guard_moved
        | Some cf_old, None -> (* fully denied: the entry drops *)
          sub cf_old None
        | None, _ -> refuse Flow_added)
      c.pc_flows;
    let read_drops =
      List.fold_left
        (fun w (_, _, lost, gained) ->
          (* a grown readable set could enable fresh reads anywhere *)
          if gained <> [] then refuse Read_gained;
          List.fold_left (fun w f -> w lor (1 lsl f)) w lost)
        0 c.pc_reads
    in
    Ok
      {
        rp_u = u;
        rp_options = options;
        rp_compiled_old = c.pc_compiled_old;
        rp_readable = readable;
        rp_flow_sub = flow_sub;
        rp_read_drops = read_drops;
      }
  with Refused r -> Error r

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
  ix_holders : int array;
      (* state [q]'s holders of field [f] at [q * nfields + f]: bit [s]
         per store holding it, bit [nstores + a] per actor that has it;
         [||] when potential deletes clear bits or stores and actors
         outnumber a word's bits *)
  ix_row_start : int array;
      (* edge rows as flat arrays: state [q]'s edges are
         [ix_edges.(ix_row_start.(q) .. ix_row_start.(q + 1) - 1)], each
         [(label id lsl ix_dst_bits) lor dst]; [||] over a spilled LTS,
         whose rows are read from it *)
  ix_edges : int array;
  ix_dst_bits : int;
}

let holders ix = ix.ix_holders

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

(* Without potential deletes a transition only ever sets store and has
   bits, the same ones wherever its label fires. A state's holders are
   then any parent's plus its label's writes, and BFS numbering puts a
   parent before each state, so the one row pass fills them in order. *)
let index (options : Generate.options) u lts =
  let n = Plts.num_states lts in
  let labels = Option.get (Plts.interned_labels lts) in
  let ns = Universe.nstores u and nf = Universe.nfields u in
  let dst_bits = bits_for n in
  let flat =
    Plts.spill_stats lts = None
    && dst_bits + bits_for (Array.length labels) < Sys.int_size - 1
  in
  let row_start = if flat then Array.make (n + 1) 0 else [||] in
  let edges =
    if flat then Array.make (Plts.num_transitions lts) 0 else [||]
  in
  let held =
    (not options.potential_deletes)
    && ns + Universe.nactors u < Sys.int_size - 1
  in
  let holders = Array.make (if held then n * nf else 0) 0 in
  let writes = Array.make (if held then Array.length labels * nf else 0) 0 in
  (* [put a i b] ORs holder bits [b] into [a.(i)] *)
  let put a i b = a.(i) <- a.(i) lor b in
  let has_var a base v =
    put a (base + Universe.var_field u v) (1 lsl (ns + Universe.var_actor u v))
  in
  if held then begin
    let by_key = Hashtbl.create 16 in
    List.iter
      (fun cf -> Hashtbl.replace by_key (flow_key cf) cf)
      (Generate.compile u options);
    Array.iteri
      (fun lid (a : Action.t) ->
        let base = lid * nf in
        match a.Action.provenance with
        | Action.From_flow _ ->
          let cf : Generate.compiled_flow =
            Hashtbl.find by_key (action_key a)
          in
          List.iter (has_var writes base) cf.cf_has_vars;
          Option.iter
            (fun (s, fis) ->
              List.iter (fun f -> put writes (base + f) (1 lsl s)) fis)
            cf.cf_store_write
        | Action.Potential ->
          (* a potential read: its actor now has the fields *)
          let has = 1 lsl (ns + Universe.actor_index u a.Action.actor) in
          List.iter
            (fun f -> put writes (base + Universe.field_index u f) has)
            a.Action.fields)
      labels;
    (* state 0 is the initial configuration: built, not decoded *)
    let cfg0 = Config.initial u in
    Array.iteri
      (fun s st -> Bitset.iter (fun f -> put holders f (1 lsl s)) st)
      cfg0.Config.stores;
    Bitset.iter (has_var holders 0) cfg0.Config.privacy.Privacy_state.has
  end;
  let e = ref 0 in
  for q = 0 to n - 1 do
    Plts.iter_successors_lid lts q (fun lid dst ->
        if held && dst > q then
          for f = 0 to nf - 1 do
            let i = (dst * nf) + f in
            holders.(i) <-
              holders.(i) lor holders.((q * nf) + f) lor writes.((lid * nf) + f)
          done;
        if flat then begin
          edges.(!e) <- (lid lsl dst_bits) lor dst;
          incr e
        end);
    if flat then row_start.(q + 1) <- !e
  done;
  {
    ix_lts = lts;
    ix_labels = labels;
    ix_holders = holders;
    ix_row_start = row_start;
    ix_edges = edges;
    ix_dst_bits = dst_bits;
  }

(* An int set by open addressing: keys are non-negative, [-1] marks a
   free slot, and the table doubles at half load. *)
type iset = { mutable slots : int array; mutable size : int }

let rec iset_add t key =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref ((key * 0x9E3779B97F4A7C1) lsr 17 land mask) in
  while slots.(!i) >= 0 && slots.(!i) <> key do
    i := (!i + 1) land mask
  done;
  if slots.(!i) = key then false
  else if 2 * (t.size + 1) > Array.length slots then begin
    t.slots <- Array.make (2 * Array.length slots) (-1);
    t.size <- 0;
    Array.iter (fun k -> if k >= 0 then ignore (iset_add t k)) slots;
    iset_add t key
  end
  else begin
    slots.(!i) <- key;
    t.size <- t.size + 1;
    true
  end

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

   A twin's region truth is the projection of its own holder words in
   the index; the affected states — those with an edge whose label
   touches an affected store — are the union of the index's cones. The
   walk is one worklist over old ids (non-negative) and pair keys
   (encoded negative), expanded in any order: the reachable set and its
   size do not depend on it. Returns [None] when it declines (growing
   substitution, region or state count too wide for one word), [Some
   None] on budget abort. *)
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
    (* region bit [k * g + h] is holder [h] of the [k]-th dropped field,
       as in the index's holder words *)
    let g = ns + na in
    let rbits = g * dfn and pbits = bits_for (na * ns) in
    if
      rbits + bits_for n > Sys.int_size - 2
      || pbits + nf > Sys.int_size - 2
      || (dfn > 0 && Array.length ix.ix_holders = 0)
    then raise Ineligible;
    let sbit s k = (k * g) + s in
    let hbit a k = (k * g) + ns + a in
    (* the region bits of holder [h] over the fields [fword] *)
    let reg_of h fword =
      let r = ref 0 in
      for k = 0 to dfn - 1 do
        if fword land (1 lsl df_arr.(k)) <> 0 then
          r := !r lor (1 lsl ((k * g) + h))
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
        reg_of s (List.fold_left (fun w f -> w lor (1 lsl f)) 0 fis)
    in
    (* (actor, store, region fields, their store bits) of the pairs
       whose readable set meets the region: the only places a read can
       exist at a pair but not at its twin *)
    let region_pairs = ref [] in
    if options.Generate.potential_reads then
      for a = na - 1 downto 0 do
        for s = ns - 1 downto 0 do
          let rdf = p.rp_readable.(a).(s) land df_mask in
          if rdf <> 0 then
            region_pairs := (a, s, rdf, reg_of s rdf) :: !region_pairs
        done
      done;
    let region_pairs = Array.of_list !region_pairs in
    let npairs = Array.length region_pairs in
    if npairs > Sys.int_size - 2 then raise Ineligible;
    (* ---- per-interned-label classification ---- *)
    let nl = Array.length labels in
    let kind = Array.make (max nl 1) 0 in
    (* 0 keep flow / 1 substitute / 2 drop / 3 potential read *)
    let guard_reg = Array.make (max nl 1) 0 in
    let wr_reg = Array.make (max nl 1) 0 in
    let subst = Array.make (max nl 1) None in
    let read_actor = Array.make (max nl 1) (-1) in
    let read_store = Array.make (max nl 1) (-1) in
    let read_fields = Array.make (max nl 1) 0 in
    let read_rdf = Array.make (max nl 1) 0 in
    let read_k = Array.make (max nl 1) (-1) in
    let read_pair = Array.make (max nl 1) (-1) in
    let pair_id = Array.make (max 1 (na * ns)) (-1) in
    Array.iteri
      (fun i (a, s, _, _) -> pair_id.((a * ns) + s) <- i)
      region_pairs;
    Array.iteri
      (fun lid (a : Action.t) ->
        match a.Action.provenance with
        | Action.From_flow _ -> (
          let key = action_key a in
          let cf =
            match
              ( Hashtbl.find_opt old_by_key key,
                Hashtbl.find_opt p.rp_flow_sub key )
            with
            | None, _ -> raise Ineligible
            | Some cf, None -> cf
            | Some cf, Some None ->
              kind.(lid) <- 2;
              cf
            | Some _, Some (Some cf) ->
              kind.(lid) <- 1;
              subst.(lid) <- Some cf;
              cf
          in
          guard_reg.(lid) <- reg_of_guard cf.cf_guard;
          wr_reg.(lid) <- reg_of_flow_writes cf)
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
    let holders = ix.ix_holders in
    let twin q =
      let r = ref 0 in
      for k = 0 to dfn - 1 do
        r := !r lor (holders.((q * nf) + df_arr.(k)) lsl (k * g))
      done;
      !r
    in
    (* ---- the walk over old ids and (twin, assignment) pairs ---- *)
    let visited = Bytes.make ((n + 7) / 8) '\000' and olds = ref 0 in
    let pairs = { slots = Array.make 1024 (-1); size = 0 } in
    let work = ref (Array.make 256 0) and top = ref 0 in
    let push x =
      if !top = Array.length !work then
        work := Array.append !work (Array.make !top 0);
      !work.(!top) <- x;
      incr top
    in
    let present = Array.make (max nl 1) false in
    (* Old labels whose substitute fired: one flow each, so their
       substitutes are distinct. *)
    let subst_fired = Array.make (max nl 1) false in
    (* Recomputed read groups, keyed [(bits lsl pbits) lor (a * ns + s)]
       and labelled once each after the walk. *)
    let fresh_reads = { slots = Array.make 64 (-1); size = 0 } in
    let emit_read a s bits =
      ignore (iset_add fresh_reads ((bits lsl pbits) lor ((a * ns) + s)))
    in
    let visit_old q =
      if not (bit visited q) then begin
        set_bit visited q;
        incr olds;
        push q
      end
    in
    let resolve dst asn =
      if asn = twin dst then visit_old dst
      else
        let key = (dst lsl rbits) lor asn in
        if iset_add pairs key then push (-1 - key)
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
    (* The node being expanded: an old state ([is_pair] false, [cur] its
       twin truth; its row is the twin's, re-pointed where substituted)
       or a pair ([cur] its assignment, [seen] the region pairs its row
       reads). *)
    let is_pair = ref false and cur = ref 0 and seen = ref 0 in
    let on_edge lid dst =
      let asn = !cur in
      match kind.(lid) with
      | 0 ->
        if not !is_pair then begin
          present.(lid) <- true;
          visit_old dst
        end
        else if guard_reg.(lid) land lnot asn = 0 then begin
          present.(lid) <- true;
          resolve dst (asn lor wr_reg.(lid))
        end
      | 2 -> ()
      | 1 ->
        (* a substitute keeps the old guard, which held at the twin *)
        if guard_reg.(lid) land lnot asn = 0 then begin
          subst_fired.(lid) <- true;
          resolve dst (asn lor wr_reg.(lid))
        end
      | _ ->
        let a = read_actor.(lid) and s = read_store.(lid) in
        let fw = read_fields.(lid) in
        if not !is_pair then begin
          let fresh_new = fw land p.rp_readable.(a).(s) in
          if fresh_new = fw then begin
            present.(lid) <- true;
            visit_old dst
          end
          else if fresh_new <> 0 then begin
            emit_read a s fresh_new;
            resolve dst (asn lor reg_of (ns + a) (fresh_new land df_mask))
          end
        end
        else if options.Generate.granular_reads then begin
          let k = read_k.(lid) in
          if k < 0 then begin
            (* field outside the region: fresh here iff fresh at the
               twin, and the has-bit it sets is not tracked *)
            present.(lid) <- true;
            resolve dst asn
          end
          else if
            asn land (1 lsl sbit s k) <> 0 && asn land (1 lsl hbit a k) = 0
          then begin
            present.(lid) <- true;
            resolve dst (asn lor (1 lsl hbit a k))
          end
        end
        else begin
          let pid = read_pair.(lid) in
          if pid >= 0 then seen := !seen lor (1 lsl pid);
          let fdf =
            if read_rdf.(lid) = 0 then 0 else fresh_df a s asn read_rdf.(lid)
          in
          let fresh_true = fw land lnot df_mask lor fdf in
          if fresh_true = fw then present.(lid) <- true
          else if fresh_true <> 0 then emit_read a s fresh_true;
          if fresh_true <> 0 then resolve dst (asn lor reg_of (ns + a) fdf)
        end
    in
    (* Reads enabled at pair [(q, asn)] but absent from its twin's row:
       the twin had already identified the field (has-bit set), this
       pair has not. *)
    let absent_reads q asn =
      let tq = twin q in
      for i = 0 to npairs - 1 do
        let a, s, rdf, smask = region_pairs.(i) in
        if asn land smask = 0 then ()
        else if options.Generate.granular_reads then
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
          done
        else if !seen land (1 lsl i) = 0 then begin
          let fdf = fresh_df a s asn rdf in
          if fdf <> 0 then begin
            emit_read a s fdf;
            resolve q (asn lor reg_of (ns + a) fdf)
          end
        end
      done
    in
    visit_old 0;
    while !top > 0 && !olds + pairs.size <= options.Generate.max_states do
      decr top;
      let x = !work.(!top) in
      let key = -1 - x in
      let q = if x >= 0 then x else key lsr rbits in
      is_pair := x < 0;
      cur := if x >= 0 then twin x else key land ((1 lsl rbits) - 1);
      seen := 0;
      iter_row ix q on_edge;
      if x < 0 then absent_reads q !cur
    done;
    Mdp_obs.Metrics.add "whatif/cone_old_states" !olds;
    Mdp_obs.Metrics.add "whatif/cone_pair_states" pairs.size;
    if !olds + pairs.size > options.Generate.max_states then Some None
    else begin
      let acc = ref [] in
      let add a = if Action.findable a then acc := a :: !acc in
      Array.iter
        (fun key ->
          if key >= 0 then
            let pair = key land ((1 lsl pbits) - 1) in
            add
              (Generate.read_action u ~actor:(pair / ns) ~store:(pair mod ns)
                 (key lsr pbits)))
        fresh_reads.slots;
      Array.iteri
        (fun lid fired ->
          (match subst.(lid) with
          | Some (cf : Generate.compiled_flow) when fired -> add cf.cf_action
          | _ -> ());
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
