module type STATE = sig
  type t
end

module type LABEL = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

exception Too_many_states of int

(* What the engine knew when it raised {!Too_many_states}: the serve
   daemon reports observed bytes/state back to operators so they can
   size [--max-states] against real memory, not guesswork. Domain-local
   because explorations on different serve workers abort
   independently; the raise and the catch happen on the same domain. *)
type abort_stats = {
  ab_limit : int;
  ab_states : int;
  ab_transitions : int;
  ab_bytes_per_state : float;
  ab_resident_bytes : int;  (* engine bytes still in RAM at abort *)
  ab_spill_bytes : int;  (* bytes evicted to disk at abort; 0 unspilled *)
  ab_mem_budget : int option;
      (* the effective resident budget, so operators can tell a
         RAM-capped abort from a disk-capped one *)
}

let abort_stats_key : abort_stats option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let last_abort_stats () = !(Domain.DLS.get abort_stats_key)
let record_abort st = Domain.DLS.get abort_stats_key := Some st

(* Byte accounting of a packed LTS, split by structure so benchmarks
   can show where the memory goes. *)
type mem_stats = {
  ms_states : int;
  ms_transitions : int;
  ms_state_bytes : int;  (** state-record arena (full + delta records) *)
  ms_edge_bytes : int;  (** flat (label id, dst) edge stream *)
  ms_index_bytes : int;  (** record offsets, depths, row table *)
  ms_dedup_bytes : int;  (** shard tables (RAM + spilled generations) *)
  ms_full_states : int;
  ms_delta_states : int;
  ms_labels : int;  (** distinct interned labels *)
  ms_total_bytes : int;  (** engine storage, resident + spilled *)
  ms_bytes_per_state : float;
  ms_resident_bytes : int;  (** total minus what was evicted to disk *)
  ms_spill_bytes : int;
  ms_spill_chunks : int;  (** arena chunks evicted *)
  ms_spill_tables : int;  (** dedup-shard generations written *)
  ms_spill_faults : int;  (** reads served back from disk *)
  ms_mem_budget : int option;
}

(* Spill occupancy of a packed LTS, for teardown checks and operator
   reports. *)
type spill_stats = {
  sp_dir : string;
  sp_bytes : int;
  sp_chunks : int;
  sp_tables : int;
  sp_faults : int;
  sp_budget : int;
}

(* A state codec: every reachable state of one model encodes to
   exactly [pk_words] payload words. [pk_decode] must be safe to call
   concurrently (analyses decode from several domains).
   Two states of one model are the same state iff their words are
   equal — true for bitset-backed privacy configs, and the contract any
   other packer must honour: the engine dedups on words alone. *)
type 'a packer = {
  pk_words : int;
  pk_blit : 'a -> int array -> int -> unit;
  pk_decode : int array -> int -> 'a;
}

module Make (S : STATE) (L : LABEL) = struct
  module Ltbl = Hashtbl.Make (L)
  module P = Packed_repr

  type state_id = int

  type transition = { src : state_id; label : L.t; dst : state_id }

  (* A state is [pk_words] payload words, stored as a byte-granular
     record in a chunked arena — either patched against zero (a "full"
     record) or delta-encoded against its frontier parent when that is
     smaller. A record lists the words it patches in a wordmap of
     ⌈w/63⌉ varints, one per 63-word group, each group's patches
     following its map. Dedup is [nshards] open-addressing
     tables partitioned by hash, probing by a hash tag first and
     word-comparing against the state's decode-cache slot only on tag
     match. Labels are interned once; edges are varint rows, one per
     source, emitted as exploration expands each source exactly once:
     out-degree, then per edge a label-id varint and a zigzag varint of
     the destination relative to the previous one (the first relative
     to the source).
     BFS numbering makes consecutively discovered destinations
     adjacent, so most destination varints are a single byte and a
     typical edge costs 2-4 bytes.

     A finished exploration is sealed by [packed_compact]: side tables
     are trimmed to exact size and the dedup shards are dropped, since
     nothing looks a state up once exploration ends. The retained bytes
     are what the serve cache holds on to, which is the number the
     mem_stats report. *)
  type shard = {
    mutable tbl : int array;
        (* young entries: (tag30 lsl 32) lor (id + 1); 0 empty *)
    mutable count : int;  (* total entries, young + spilled *)
    mutable young : int;  (* entries in [tbl] (not yet spilled) *)
    mutable gens : (int * int) list;
        (* spilled generations, newest first: (file offset, capacity) of
           a sealed 5-byte table in the shard spill file. LSM-style:
           under budget pressure the young table seals to a new
           generation and inserts restart in a fresh young table.
           Membership is the union over young + generations — a state
           lives in exactly one — so probing order cannot change any
           dedup verdict, which is what keeps numbering byte-identical
           for every budget. *)
  }

  (* Live spill run of one packed LTS: two append-only files (evicted
     arena chunks; sealed dedup generations) under a private directory. *)
  type spill_state = {
    ss_spill : Spill.t;
    ss_arena : Spill.file;
    ss_shards : Spill.file;
    mutable ss_bytes : int;
    mutable ss_chunks : int;
    mutable ss_tables : int;
  }

  type packed = {
    pk : S.t packer;
    ngroups : int;  (* wordmap groups per record: ⌈pk_words / 63⌉ *)
    pstamp : int;  (* distinguishes this LTS in the domain decode cache *)
    arena : P.Arena.t;
    offs : P.U32.t;  (* state -> arena offset of its record *)
    depths : P.U8.t;  (* state -> delta-chain depth *)
    shards : shard array;
    mutable full_states : int;
    mutable delta_states : int;
    (* labels *)
    lbl_ids : int Ltbl.t;
    mutable lbl_data : L.t array;
    mutable nlabels : int;
    (* edges: varint rows in one growable byte buffer *)
    mutable ebytes : Bytes.t;
    mutable elen : int;
    row_start : P.U32.t;  (* state -> byte offset of its row, or row_none *)
    (* the open row of the state being expanded: (lid lsl 32) lor dst *)
    mutable rbuf : int array;
    mutable rlen : int;
    (* single-domain scratch: exploration rounds reuse these;
       concurrent readers ([state_data] from analysis workers) allocate
       their own *)
    enc_buf : Bytes.t;
    zeros : int array;  (* the base words of a full record *)
    full_maps : int array;  (* wordmap groups of the record being encoded *)
    delta_maps : int array;
    cur : P.cursor;
    cand_buf : int array;
    cmp_buf : int array;
    (* spill tier: [budget] is the resident-byte ceiling; the run
       directory is created lazily on first eviction *)
    budget : int option;
    spill_dir : string option;
    mutable spill : spill_state option;
  }

  type t = {
    p : packed;
    mutable n : int;
    mutable ntrans : int;
  }

  let nshards = 64
  let shard_of h = h land (nshards - 1)
  let tag_of h = h lsr 32 (* 30 bits: hashes are 62-bit non-negative *)

  (* Sentinel [row_start] for states not yet expanded. *)
  let row_none = 0xffff_ffff

  (* Delta chains this deep cost a longer [decode_words] walk but cut
     the share of full records (the dominant state-arena cost) to a few
     percent; the wordmap keeps a chain level down to a few byte reads,
     and [depths] stays a byte table. *)
  let max_chain = 31

  let packed_stamps = Atomic.make 1

  (* Words per wordmap group: one varint of 63 bits. *)
  let group_words = 63

  let make ?mem_budget ?spill_dir pk =
    let ngroups = (pk.pk_words + group_words - 1) / group_words in
    {
      p =
        {
          pk;
          ngroups;
          pstamp = Atomic.fetch_and_add packed_stamps 1;
          arena = P.Arena.create ();
          offs = P.U32.create ();
          depths = P.U8.create ();
          shards =
            Array.init nshards (fun _ ->
                {
                  tbl = Array.make 64 0;
                  count = 0;
                  young = 0;
                  gens = [];
                });
          full_states = 0;
          delta_states = 0;
          lbl_ids = Ltbl.create 64;
          lbl_data = [||];
          nlabels = 0;
          ebytes = Bytes.create 4096;
          elen = 0;
          row_start = P.U32.create ();
          rbuf = Array.make 16 0;
          rlen = 0;
          enc_buf = Bytes.create (32 + (10 * pk.pk_words));
          zeros = Array.make pk.pk_words 0;
          full_maps = Array.make ngroups 0;
          delta_maps = Array.make ngroups 0;
          cur = P.cursor ();
          cand_buf = Array.make pk.pk_words 0;
          cmp_buf = Array.make pk.pk_words 0;
          budget = mem_budget;
          spill_dir;
          spill = None;
        };
      n = 0;
      ntrans = 0;
    }

  (* ----- packed primitives ----- *)

  (* The word loops on the exploration's hot path are plain loops: a
     local recursive function capturing its arguments would allocate a
     closure on every call. *)
  let words_equal a b w =
    let i = ref 0 in
    while !i < w && Array.unsafe_get a !i = Array.unsafe_get b !i do incr i done;
    !i = w

  (* Lowest set bit index of a non-zero word. *)
  let ntz v =
    let rec go k b = if b land 1 = 1 then k else go (k + 1) (b lsr 1) in
    go 0 v

  (* Per-domain decode cache, direct-mapped by state id. Slot [i] is
     [w + 1] consecutive ints of one array: its key
     [(pstamp lsl 28) lor id] (-1 when empty), then that state's [w]
     words. A dedup probe whose tag matches confirms the hit against
     the slot in place — one key compare and [w] word compares over
     consecutive ints — and decodes into scratch only on a miss.
     Exploration primes a new state's slot with its words when it
     creates the state, so the state's first confirmations and its
     expansion never walk the delta chain. A decode that misses walks
     the chain up to the nearest cached ancestor or its full record
     and caches every level on the way back down: deep delta chains
     are what keep the arena small, and BFS locality (siblings share a
     delta parent, probes cluster on recent frontiers) keeps the walks
     short. Domain-local (never shared, never locked); keys carry the
     owning LTS's [pstamp], so interleaved decodes from several LTSs
     never cross-contaminate and switching costs nothing. Records are
     append-only and immutable, so entries never need invalidating.

     The table starts at [min_cache_slots] slots and is replaced by the
     full [cache_slots w] table once it has been written as many times
     as it has slots: a one-off decode (at most [max_chain + 1] writes)
     allocates a few KB, and anything that decodes more (an
     exploration, a pass over every state) gets the full table early,
     in one allocation. An exploration writes each new state once, so
     below 2^16 states no state is ever evicted. *)
  let max_cache_slots = 1 lsl 16
  let min_cache_slots = 64

  (* Slot ceiling for [w]-word states: the full 2^16 up to 63 words,
     halved for wider states until the words fit in 2^16 63-word slots,
     so a wide universe costs no more cache than a narrow one. The
     table is [slots * (w + 1)] ints. *)
  let cache_slots w =
    let rec go s =
      if s > 1 && s * w > max_cache_slots * group_words then go (s / 2) else s
    in
    go max_cache_slots

  (* Ids at or above this would collide with the stamp bits of the
     cache key; such states (impossible under the 4 GiB arena bound)
     simply bypass the cache. *)
  let cache_id_limit = 1 lsl 28

  type dcache = {
    mutable dc_w : int;  (* words per state; -1 = unallocated *)
    mutable dc_mask : int;  (* slots - 1 *)
    mutable dc_max : int;  (* slot ceiling, [cache_slots dc_w] *)
    mutable dc_fills : int;  (* slot writes since allocation; grows the table *)
    mutable dc_slots : int array;  (* per slot: key, then [dc_w] words *)
  }

  let dcache_key : dcache Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { dc_w = -1; dc_mask = 0; dc_max = 0; dc_fills = 0; dc_slots = [||] })

  let get_dcache p =
    let dc = Domain.DLS.get dcache_key in
    let w = p.pk.pk_words in
    if dc.dc_w <> w then begin
      let max = cache_slots w in
      let slots = min min_cache_slots max in
      dc.dc_w <- w;
      dc.dc_mask <- slots - 1;
      dc.dc_max <- max;
      dc.dc_fills <- 0;
      dc.dc_slots <- Array.make (slots * (w + 1)) (-1)
    end;
    dc

  (* Drop the calling domain's cache: called when an LTS is sealed so
     retained memory is the packed structures alone. *)
  let drop_dcache () =
    let dc = Domain.DLS.get dcache_key in
    dc.dc_w <- -1;
    dc.dc_mask <- 0;
    dc.dc_fills <- 0;
    dc.dc_slots <- [||]

  (* [id]'s cache key, or -2 (which no slot holds) for an id or stamp
     too large to key. *)
  let cache_key p id =
    if id < cache_id_limit && p.pstamp lsl 28 >= 0 then (p.pstamp lsl 28) lor id
    else -2

  (* Offset of the first word of [id]'s slot when the slot holds [key],
     else -1. *)
  let lookup dc key id =
    let base = (id land dc.dc_mask) * (dc.dc_w + 1) in
    if Array.unsafe_get dc.dc_slots base = key then base + 1 else -1

  (* Replace the small table by the full one, moving every entry to
     its slot under the wider mask: distinct slots stay distinct, so
     nothing is lost. *)
  let grow_dcache dc =
    let s = dc.dc_w + 1 in
    let old = dc.dc_slots and slots = dc.dc_max in
    let tbl = Array.make (slots * s) (-1) in
    let mask = slots - 1 in
    for i = 0 to dc.dc_mask do
      let key = Array.unsafe_get old (i * s) in
      if key >= 0 then
        Array.blit old (i * s) tbl ((key land (cache_id_limit - 1) land mask) * s) s
    done;
    dc.dc_mask <- mask;
    dc.dc_slots <- tbl

  (* Write [words] into [id]'s slot under [key]. *)
  let cache_store dc key id words =
    if key >= 0 then begin
      if dc.dc_fills > dc.dc_mask && dc.dc_mask + 1 < dc.dc_max then
        grow_dcache dc;
      dc.dc_fills <- dc.dc_fills + 1;
      let w = dc.dc_w in
      let base = (id land dc.dc_mask) * (w + 1) in
      let slots = dc.dc_slots in
      Array.unsafe_set slots base key;
      for i = 0 to w - 1 do
        Array.unsafe_set slots (base + 1 + i) (Array.unsafe_get words i)
      done
    end

  (* Copy the [w] words at slot offset [off] into [buf]. *)
  let cache_load dc off buf w =
    let slots = dc.dc_slots in
    for i = 0 to w - 1 do
      Array.unsafe_set buf i (Array.unsafe_get slots (off + i))
    done

  (* Apply a record's wordmap groups at [cur] to [buf]: per group, the
     map varint, then one patch per set bit against the word already in
     [buf]. *)
  let patch_groups p cur buf =
    for g = 0 to p.ngroups - 1 do
      let lo = g * group_words in
      let m = ref (P.get_varint cur) in
      while !m <> 0 do
        let i = lo + ntz !m in
        buf.(i) <- P.get_word_patch cur ~base:buf.(i);
        m := !m land (!m - 1)
      done
    done

  (* Decode state [id]'s words into [buf]: from its cache slot, or by
     [decode_record]. *)
  let rec decode_rec p dc cur buf id =
    let off = lookup dc (cache_key p id) id in
    if off >= 0 then cache_load dc off buf p.pk.pk_words
    else decode_record p dc cur buf id

  (* Decode [id] from its record: walk the delta chain up to its full
     record (depth <= [max_chain]) or the nearest cached ancestor, then
     apply patches back down, caching each level. Each record carries a
     wordmap of the words it touches, so a chain level costs a handful
     of byte reads — most delta levels change one or two of the packed
     words. [cur] is caller-owned so concurrent decodes never race. *)
  and decode_record p dc cur buf id =
    P.Arena.seek p.arena cur (P.U32.get p.offs id);
    let tag = P.get_varint cur in
    if tag = 0 then Array.fill buf 0 p.pk.pk_words 0
    else begin
      let b = cur.P.b and pos = cur.P.pos in
      decode_rec p dc cur buf (tag - 1);
      cur.P.b <- b;
      cur.P.pos <- pos
    end;
    patch_groups p cur buf;
    cache_store dc (cache_key p id) id buf

  let decode_words p cur buf id = decode_rec p (get_dcache p) cur buf id

  (* Is state [id] the candidate [words]? Compared in place against
     [id]'s slot when the cache holds it; otherwise [id] is decoded
     into [buf] (and cached), counting one miss in [misses]. *)
  let confirm p dc cur buf misses words id =
    let w = p.pk.pk_words in
    let off = lookup dc (cache_key p id) id in
    if off >= 0 then begin
      let slots = dc.dc_slots in
      let i = ref 0 in
      while
        !i < w && Array.unsafe_get slots (off + !i) = Array.unsafe_get words !i
      do
        incr i
      done;
      !i = w
    end
    else begin
      incr misses;
      decode_record p dc cur buf id;
      words_equal words buf w
    end

  let shard_grow sh =
    let old = sh.tbl in
    let cap = 2 * Array.length old in
    let mask = cap - 1 in
    let tbl = Array.make cap 0 in
    Array.iter
      (fun e ->
        if e <> 0 then begin
          let i = ref (e lsr 32 land mask) in
          while tbl.(!i) <> 0 do
            i := (!i + 1) land mask
          done;
          tbl.(!i) <- e
        end)
      old;
    sh.tbl <- tbl

  (* Spilled-generation slot and filter tag, both derived from the
     30-bit tag so spilling can rebuild without rehashing any state:
     the slot takes the tag modulo the (arbitrary, exact-load)
     capacity, the filter byte bits 22-29 (an overlap only weakens the
     filter). *)
  let cslot tag cap = tag mod cap
  let ctag8 tag = (tag lsr 22) land 0xff

  (* Seal the young table into a new on-disk generation and restart
     young inserts from scratch: the int entries are rebuilt into a
     compact 5-byte table (u32 LE id + 1, then the filter byte) at a
     0.85 load. The capacity is exact, not a power of two — pow2
     rounding would write up to 2x the bytes — so probing is modulo.
     Entries keep their ids and tags, so later probes find exactly what
     they would have found in RAM. *)
  let spill_shard ss sh =
    let cap = max 16 ((sh.young * 20 / 17) + 1) in
    let ctbl = Bytes.make (5 * cap) '\000' in
    Array.iter
      (fun e ->
        if e <> 0 then begin
          let tag = e lsr 32 in
          let i = ref (cslot tag cap) in
          while Bytes.get_int32_le ctbl (5 * !i) <> 0l do
            incr i;
            if !i = cap then i := 0
          done;
          Bytes.set_int32_le ctbl (5 * !i) (Int32.of_int (e land 0xffff_ffff));
          Bytes.unsafe_set ctbl ((5 * !i) + 4) (Char.unsafe_chr (ctag8 tag))
        end)
      sh.tbl;
    let off = Spill.append ss.ss_shards ctbl ~pos:0 ~len:(5 * cap) in
    sh.gens <- (off, cap) :: sh.gens;
    ss.ss_bytes <- ss.ss_bytes + (5 * cap);
    ss.ss_tables <- ss.ss_tables + 1;
    sh.tbl <- [||];
    sh.young <- 0

  (* Probe the spilled generations, newest first, through the mapped
     view of their 5-byte entries. *)
  let gshard_find p dc sh tag words cur buf misses =
    let sf = (Option.get p.spill).ss_shards in
    let t8 = ctag8 tag in
    let rec go = function
      | [] -> -1
      | (goff, cap) :: rest ->
        let i = ref (cslot tag cap) in
        let res = ref (-1) in
        (try
           let e = ref (Spill.entry5 sf ~off:(goff + (5 * !i))) in
           while !e land 0xffff_ffff <> 0 do
             if !e lsr 32 = t8 then begin
               let id = (!e land 0xffff_ffff) - 1 in
               if confirm p dc cur buf misses words id then begin
                 res := id;
                 raise_notrace Exit
               end
             end;
             incr i;
             if !i = cap then i := 0;
             e := Spill.entry5 sf ~off:(goff + (5 * !i))
           done
         with Exit -> ());
        if !res >= 0 then !res else go rest
    in
    go sh.gens

  (* Find the id whose words equal [words], or -1. Probes by tag and
     confirms a tag match with [confirm], so a probe is normally a
     handful of int compares. A state lives in exactly one of the young
     table and the spilled generations, so probe order is irrelevant to
     the verdict — young first is just the warm path. *)
  let shard_find p dc sh tag words cur buf misses =
    let res = ref (-1) in
    if sh.young > 0 then begin
      let mask = Array.length sh.tbl - 1 in
      let i = ref (tag land mask) in
      (try
         while sh.tbl.(!i) <> 0 do
           let e = sh.tbl.(!i) in
           if e lsr 32 = tag then begin
             let id = (e land 0xffff_ffff) - 1 in
             if confirm p dc cur buf misses words id then begin
               res := id;
               raise_notrace Exit
             end
           end;
           i := (!i + 1) land mask
         done
       with Exit -> ())
    end;
    if !res < 0 && sh.gens <> [] then
      res := gshard_find p dc sh tag words cur buf misses;
    !res

  (* Insert a known-absent id into the young table — spilled
     generations are immutable. *)
  let shard_insert sh tag id =
    if Array.length sh.tbl = 0 then sh.tbl <- Array.make 64 0
    else if 2 * (sh.young + 1) > Array.length sh.tbl then shard_grow sh;
    let mask = Array.length sh.tbl - 1 in
    let i = ref (tag land mask) in
    while sh.tbl.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    sh.tbl.(!i) <- (tag lsl 32) lor (id + 1);
    sh.count <- sh.count + 1;
    sh.young <- sh.young + 1

  (* Fill [maps] with the wordmap of [words] against [base] (bit i of
     group g set = word 63g+i differs) and return the bytes the groups
     cost in a record: each group's map varint plus its word patches. *)
  let diff_groups p maps ~base words =
    let w = p.pk.pk_words in
    let size = ref 0 in
    for g = 0 to p.ngroups - 1 do
      let lo = g * group_words in
      let m = ref 0 in
      for i = lo to min w (lo + group_words) - 1 do
        let b = Array.unsafe_get base i and x = Array.unsafe_get words i in
        if x <> b then begin
          m := !m lor (1 lsl (i - lo));
          size := !size + P.word_patch_size ~base:b x
        end
      done;
      Array.unsafe_set maps g !m;
      size := !size + P.varint_size !m
    done;
    !size

  (* Write the groups [diff_groups] measured, in [patch_groups] order. *)
  let put_groups p b pos maps ~base words =
    let pos = ref pos in
    for g = 0 to p.ngroups - 1 do
      let lo = g * group_words in
      pos := P.put_varint b !pos maps.(g);
      let m = ref maps.(g) in
      while !m <> 0 do
        let i = lo + ntz !m in
        pos := P.put_word_patch b !pos ~base:base.(i) words.(i);
        m := !m land (!m - 1)
      done
    done;
    !pos

  (* Append the record for [words]: delta against [parent] when the
     chain stays short and the patch bytes beat a full record. Both
     record kinds carry a wordmap so untouched words cost nothing to
     store or decode. *)
  let encode_record p ~parent ~parent_words ~parent_depth words =
    let full_total = 1 + diff_groups p p.full_maps ~base:p.zeros words in
    let delta_total =
      if parent < 0 || parent_depth >= max_chain then max_int
      else
        P.varint_size (parent + 1)
        + diff_groups p p.delta_maps ~base:parent_words words
    in
    let b = p.enc_buf in
    let len, depth =
      if delta_total < full_total then begin
        let pos = P.put_varint b 0 (parent + 1) in
        p.delta_states <- p.delta_states + 1;
        ( put_groups p b pos p.delta_maps ~base:parent_words words,
          parent_depth + 1 )
      end
      else begin
        let pos = P.put_varint b 0 0 in
        p.full_states <- p.full_states + 1;
        (put_groups p b pos p.full_maps ~base:p.zeros words, 0)
      end
    in
    (P.Arena.append p.arena b len, depth)

  (* Engine bytes currently in RAM: resident arena chunks, the edge
     buffer, the index tables and the dedup tables. Recomputed per
     budget check — a 64-shard fold is noise against the work between
     checks. *)
  let packed_resident p =
    P.Arena.resident_bytes p.arena
    + Bytes.length p.ebytes
    + P.U32.bytes p.offs + P.U32.bytes p.row_start + P.U8.bytes p.depths
    + Array.fold_left (fun a sh -> a + (8 * Array.length sh.tbl)) 0 p.shards

  let ensure_spill p =
    match p.spill with
    | Some ss -> ss
    | None ->
      let sp = Spill.create ?dir:p.spill_dir () in
      let ss =
        {
          ss_spill = sp;
          ss_arena = Spill.file sp "arena.spill";
          ss_shards = Spill.file sp "shards.spill";
          ss_bytes = 0;
          ss_chunks = 0;
          ss_tables = 0;
        }
      in
      p.spill <- Some ss;
      (* The run dies with its LTS: when a cached artifact is evicted
         and collected, the finaliser (idempotent against the abort
         paths and the at_exit sweep) reclaims the directory. *)
      Gc.finalise (fun (_ : packed) -> Spill.remove sp) p;
      ss

  (* Don't seal shards below this many young entries: tiny generations
     would pile up and slow every probe for marginal RAM. *)
  let min_spill_young = 4096

  (* Enforce the resident budget: evict sealed arena chunks first
     (strictly oldest-first — that keeps the file offset of chunk i at
     i * chunk_size, and BFS-recent chunks, which delta decodes hit
     hardest, in RAM), then seal the largest young dedup tables to
     disk generations. Stops when nothing evictable remains: the edge
     buffer, index tables and open chunk are the unevictable floor. *)
  let spill_down p =
    match p.budget with
    | None -> ()
    | Some budget ->
      if packed_resident p > budget
         && (P.Arena.evictable p.arena > 0
             || Array.exists (fun sh -> sh.young >= min_spill_young) p.shards)
      then
        Mdp_obs.Metrics.span "phase/spill" @@ fun () ->
        let ss = ensure_spill p in
        while packed_resident p > budget && P.Arena.evictable p.arena > 0 do
          P.Arena.evict_chunk p.arena ss.ss_arena;
          ss.ss_chunks <- ss.ss_chunks + 1;
          ss.ss_bytes <- ss.ss_bytes + P.Arena.chunk_size
        done;
        let continue = ref true in
        while !continue && packed_resident p > budget do
          let best = ref (-1) and bestn = ref (min_spill_young - 1) in
          Array.iteri
            (fun i sh ->
              if sh.young > !bestn then begin
                best := i;
                bestn := sh.young
              end)
            p.shards;
          if !best < 0 then continue := false
          else spill_shard ss p.shards.(!best)
        done

  (* How many new states between two budget checks: growth between
     checks is bounded by a few hundred records plus one table
     doubling, all far below any sane budget's slack. *)
  let spill_check_batch = 512

  (* Append a state with words [words] and hash [h], and prime its
     slot in [dc] with the words. *)
  let packed_new_state t p dc ~parent ~parent_words ~parent_depth words h =
    let id = t.n in
    let off, depth = encode_record p ~parent ~parent_words ~parent_depth words in
    cache_store dc (cache_key p id) id words;
    P.U32.set p.offs id off;
    P.U8.set p.depths id depth;
    P.U32.set p.row_start id row_none;
    shard_insert p.shards.(shard_of h) (tag_of h) id;
    t.n <- id + 1;
    if t.n land (spill_check_batch - 1) = 0 then spill_down p;
    id

  (* Seal a finished exploration: trim every growable structure to what
     it actually holds (doubling leaves up to 2x slack) and drop the
     dedup shards — an explored LTS never looks a state up again.
     Skipped on abort — an aborted LTS is discarded anyway. *)
  let packed_compact p n =
    if Bytes.length p.ebytes > p.elen then
      p.ebytes <- Bytes.sub p.ebytes 0 (max 1 p.elen);
    P.U32.trim p.offs n;
    P.U32.trim p.row_start n;
    P.U8.trim p.depths n;
    Array.iter
      (fun sh ->
        sh.tbl <- [||];
        sh.young <- 0;
        sh.gens <- [])
      p.shards;
    (* Re-enforce the budget on the sealed result: trims may not be
       enough when the run finished mid-growth. *)
    spill_down p;
    drop_dcache ()

  let intern p label =
    match Ltbl.find_opt p.lbl_ids label with
    | Some i -> i
    | None ->
      let i = p.nlabels in
      if i = Array.length p.lbl_data then begin
        let cap = max 16 (2 * i) in
        let bigger = Array.make cap label in
        Array.blit p.lbl_data 0 bigger 0 i;
        p.lbl_data <- bigger
      end;
      p.lbl_data.(i) <- label;
      p.nlabels <- i + 1;
      Ltbl.add p.lbl_ids label i;
      i

  (* Append an edge to the open row (scratch ints until the row is
     sealed by [close_row]). *)
  let push_edge p e =
    if p.rlen = Array.length p.rbuf then begin
      let cap = max 16 (2 * p.rlen) in
      let bigger = Array.make cap 0 in
      Array.blit p.rbuf 0 bigger 0 p.rlen;
      p.rbuf <- bigger
    end;
    p.rbuf.(p.rlen) <- e;
    p.rlen <- p.rlen + 1

  (* Any identical edge already in the open row? Edges are single ints,
     so the in-row duplicate check is an int scan. *)
  let row_contains p e =
    let rbuf = p.rbuf and n = p.rlen in
    let i = ref 0 in
    while !i < n && rbuf.(!i) <> e do incr i done;
    !i < n

  let ensure_ebytes p extra =
    if p.elen + extra > Bytes.length p.ebytes then begin
      let cap = max (p.elen + extra) (2 * Bytes.length p.ebytes) in
      let bigger = Bytes.create cap in
      Bytes.blit p.ebytes 0 bigger 0 p.elen;
      p.ebytes <- bigger
    end

  (* Encode the open row as [src]'s permanent varint row and reset the
     scratch. Must be called exactly once per expanded source, in
     discovery order (which keeps the byte layout identical for every
     budget). *)
  let close_row p src =
    ensure_ebytes p ((10 * (p.rlen + 1)) + 10);
    let pos = ref (P.put_varint p.ebytes p.elen p.rlen) in
    let prev = ref src in
    for i = 0 to p.rlen - 1 do
      let e = p.rbuf.(i) in
      let dst = e land 0xffff_ffff in
      pos := P.put_varint p.ebytes !pos (e lsr 32);
      pos := P.put_varint p.ebytes !pos (P.zigzag (dst - !prev));
      prev := dst
    done;
    if !pos >= row_none then
      failwith "Mdp_lts: packed edge rows exceed the 4 GiB offset range";
    P.U32.set p.row_start src p.elen;
    p.elen <- !pos;
    p.rlen <- 0

  (* Decode the sealed row of [src]: calls [f lid dst] per edge in
     insertion order. *)
  let iter_row p src f =
    let rs = P.U32.get p.row_start src in
    if rs <> row_none then begin
      let cur = { P.b = p.ebytes; P.pos = rs } in
      let deg = P.get_varint cur in
      let prev = ref src in
      for _ = 1 to deg do
        let lid = P.get_varint cur in
        let dst = !prev + P.unzigzag (P.get_varint cur) in
        prev := dst;
        f lid dst
      done
    end

  let packed_mem p n ntrans =
    let state_bytes = P.Arena.bytes p.arena in
    let edge_bytes = Bytes.length p.ebytes in
    let index_bytes =
      P.U32.bytes p.offs + P.U32.bytes p.row_start + P.U8.bytes p.depths
    in
    let spill_bytes, spill_chunks, spill_tables, spill_faults =
      match p.spill with
      | None -> (0, 0, 0, 0)
      | Some ss ->
        (ss.ss_bytes, ss.ss_chunks, ss.ss_tables, Spill.faults ss.ss_spill)
    in
    (* spilled generations are dedup storage; evicted chunks are state
       storage already counted by [Arena.bytes] *)
    let gen_bytes = spill_bytes - (spill_chunks * P.Arena.chunk_size) in
    let dedup_bytes =
      gen_bytes
      + Array.fold_left (fun a sh -> a + (8 * Array.length sh.tbl)) 0 p.shards
    in
    let total = state_bytes + edge_bytes + index_bytes + dedup_bytes in
    {
      ms_states = n;
      ms_transitions = ntrans;
      ms_state_bytes = state_bytes;
      ms_edge_bytes = edge_bytes;
      ms_index_bytes = index_bytes;
      ms_dedup_bytes = dedup_bytes;
      ms_full_states = p.full_states;
      ms_delta_states = p.delta_states;
      ms_labels = p.nlabels;
      ms_total_bytes = total;
      ms_bytes_per_state = float_of_int total /. float_of_int (max 1 n);
      ms_resident_bytes = total - spill_bytes;
      ms_spill_bytes = spill_bytes;
      ms_spill_chunks = spill_chunks;
      ms_spill_tables = spill_tables;
      ms_spill_faults = spill_faults;
      ms_mem_budget = p.budget;
    }

  let mem_stats t = Some (packed_mem t.p t.n t.ntrans)

  let spill_stats t =
    let p = t.p in
    match p.spill with
    | None -> None
    | Some ss ->
      Some
        {
          sp_dir = Spill.dir ss.ss_spill;
          sp_bytes = ss.ss_bytes;
          sp_chunks = ss.ss_chunks;
          sp_tables = ss.ss_tables;
          sp_faults = Spill.faults ss.ss_spill;
          sp_budget = Option.value p.budget ~default:0;
        }

  (* Release the disk tier early (tests, explicit teardown), and on any
     failed exploration. Decoding a state whose chain touches a spilled
     chunk afterwards fails, so only call this when the LTS is done
     with. *)
  let drop_spill t = Option.iter (fun ss -> Spill.remove ss.ss_spill) t.p.spill

  (* ----- observation ----- *)

  (* The first state added — the root of every exploration — is id 0. *)
  let initial t = if t.n = 0 then invalid_arg "Lts.initial: empty LTS" else 0

  let num_states t = t.n
  let num_transitions t = t.ntrans

  let state_data t id =
    if id < 0 || id >= t.n then invalid_arg "Lts.state_data";
    let p = t.p in
    (* Fresh cursor and buffer: analyses may decode from several domains
       at once. *)
    let cur = P.cursor () in
    let buf = Array.make p.pk.pk_words 0 in
    decode_words p cur buf id;
    p.pk.pk_decode buf 0

  (* Label-id access: labels are interned, so a per-label verdict
     ("does this label change under the edit?") can be computed once
     per distinct label and row scans reduce to one array index per
     transition. Always [Some]; the option is kept for callers that
     still match on it. *)
  let interned_labels t = Some (Array.sub t.p.lbl_data 0 t.p.nlabels)

  let iter_successors_lid t id f =
    if id < 0 || id >= t.n then invalid_arg "Lts.iter_successors_lid";
    iter_row t.p id f

  let iter_states t f =
    for i = 0 to t.n - 1 do
      f i
    done

  (* Raise the state guard with context attached for the caller's error
     report. *)
  let too_many t limit =
    let ms = packed_mem t.p t.n t.ntrans in
    record_abort
      {
        ab_limit = limit;
        ab_states = t.n;
        ab_transitions = t.ntrans;
        ab_bytes_per_state = ms.ms_bytes_per_state;
        ab_resident_bytes = ms.ms_resident_bytes;
        ab_spill_bytes = ms.ms_spill_bytes;
        ab_mem_budget = t.p.budget;
      };
    raise (Too_many_states limit)

  (* ----- successor access ----- *)

  let iter_successors t id f =
    if id < 0 || id >= t.n then invalid_arg "Lts.iter_successors";
    let p = t.p in
    iter_row p id (fun lid dst -> f p.lbl_data.(lid) dst)

  let successors t id =
    let acc = ref [] in
    iter_successors t id (fun label dst -> acc := (label, dst) :: !acc);
    List.rev !acc

  let iter_transitions t f =
    for src = 0 to t.n - 1 do
      iter_successors t src (fun label dst -> f { src; label; dst })
    done

  (* The breadth-first tree from one row pass. Ids are BFS discovery
     order and rows keep emission order, so scanning rows by ascending
     id meets each state's tree edge — the edge that discovered it —
     before any other edge into it. A parent's id is below its child's,
     so the rows of ids below [rows] settle every state up to [rows]. *)
  let tree_of_rows t rows =
    let parent = Array.make t.n (-1) and via = Array.make t.n (-1) in
    for s = 0 to rows - 1 do
      iter_row t.p s (fun lid d ->
          if d > 0 && parent.(d) < 0 then begin
            parent.(d) <- s;
            via.(d) <- lid
          end)
    done;
    (parent, via)

  let witness_tree t = tree_of_rows t t.n

  let unwind (parent, via) f s =
    let rec go acc s =
      match parent.(s) with -1 -> acc | prev -> go (f via.(s) s :: acc) prev
    in
    go [] s

  (* The first state in BFS order is the lowest id satisfying [pred];
     only the rows below it are needed to unwind its path. *)
  let path_to t pred =
    let rec first s =
      if s >= t.n then None else if pred s then Some s else first (s + 1)
    in
    Option.map
      (fun s ->
        unwind (tree_of_rows t s) (fun lid d -> (t.p.lbl_data.(lid), d)) s)
      (first 0)

  (* Equal labels share one interned id, so a repeated label in a row
     is a repeated int: [last.(lid)] holds the last state whose row
     used [lid]. *)
  let is_deterministic t =
    let last = Array.make t.p.nlabels (-1) in
    let ok = ref true in
    for s = 0 to t.n - 1 do
      iter_row t.p s (fun lid _ ->
          if last.(lid) = s then ok := false else last.(lid) <- s)
    done;
    !ok

  (* ----- exploration ----- *)

  (* How many expansions on the calling domain happen between two
     cancellation polls: a poll is an atomic read plus (with a deadline) a clock
     read, so probing per state would be measurable on million-state
     runs while probing per batch keeps the reaction bound tight. *)
  let cancel_poll_batch = 512

  let poll_cancel = function
    | None -> ()
    | Some c -> Mdp_obs.Cancel.check c

  (* Breadth-first exploration by id-range frontiers. BFS hands out ids
     in discovery order, so the states a round discovers are exactly
     the id range [lo, hi) the next round expands, starting from the
     initial state 0; dedup is word-equality (the packer contract).
     A round expands its ids one by one against the live tables; the
     round boundary is where the spill tier evicts and where the
     [lts/frontier_*] metrics are taken.

     Successors arrive as words: [step_words] writes each candidate
     into [p.cand_buf] and calls [emit key], which probes the shards
     and appends the edge with nothing boxed. [lids] resolves the
     emitter's dense label keys to interned label ids, so [label_of]
     and [intern] run once per key; a label's first key is seen at the
     label's first edge, so label ids keep first-edge order.

     [dc] is the domain's decode cache, fetched again per expanded
     state; [cache_misses] counts the confirmations and expansions that
     found their state's slot holding another state. *)
  let explore_rounds t p ~max_states ~cancel ~label_of ~step_words =
    let w = p.pk.pk_words in
    let hits = ref 0 and misses = ref 0 and rounds = ref 0 in
    let cache_misses = ref 0 and dc = ref (get_dcache p) in
    let parent_buf = Array.make w 0 and cand = p.cand_buf in
    let src = ref 0 and src_depth = ref 0 in
    let lids = ref (Array.make 64 (-1)) in
    let lid_of key =
      if key >= Array.length !lids then begin
        let bigger = Array.make (max (key + 1) (2 * Array.length !lids)) (-1) in
        Array.blit !lids 0 bigger 0 (Array.length !lids);
        lids := bigger
      end;
      let lid = !lids.(key) in
      if lid >= 0 then lid
      else begin
        let lid = intern p (label_of key) in
        !lids.(key) <- lid;
        lid
      end
    in
    let emit key =
      let h = P.hash_words cand w in
      let found =
        shard_find p !dc p.shards.(shard_of h) (tag_of h) cand p.cur
          p.cmp_buf cache_misses
      in
      let dst =
        if found >= 0 then begin
          incr hits;
          found
        end
        else begin
          let id =
            packed_new_state t p !dc ~parent:!src ~parent_words:parent_buf
              ~parent_depth:!src_depth cand h
          in
          if t.n > max_states then too_many t max_states;
          incr misses;
          id
        end
      in
      (* Append [-label-> dst] to the open row, once. *)
      let e = (lid_of key lsl 32) lor dst in
      if not (row_contains p e) then begin
        push_edge p e;
        t.ntrans <- t.ntrans + 1
      end
    in
    let expand lo hi =
      for s = lo to hi - 1 do
        (* [s] is also the number of states expanded so far. *)
        if s land (cancel_poll_batch - 1) = 0 then begin
          poll_cancel cancel;
          (* Spill on the expansion batch too: edge rows and dedup
             tables grow even through stretches that discover few
             states, so the per-new-state check alone could lag the
             budget. *)
          spill_down p
        end;
        let d = get_dcache p in
        dc := d;
        let off = lookup d (cache_key p s) s in
        if off >= 0 then cache_load d off parent_buf w
        else begin
          incr cache_misses;
          decode_record p d p.cur parent_buf s
        end;
        src := s;
        src_depth := P.U8.get p.depths s;
        p.rlen <- 0;
        step_words parent_buf cand emit;
        close_row p s
      done
    in
    Fun.protect ~finally:(fun () ->
        Mdp_obs.Metrics.add "lts/dedup_hits" !hits;
        Mdp_obs.Metrics.add "lts/dedup_misses" !misses;
        Mdp_obs.Metrics.add "lts/decode_cache_misses" !cache_misses;
        Mdp_obs.Metrics.add "lts/frontier_rounds" !rounds)
    @@ fun () ->
    let lo = ref 0 in
    while !lo < t.n do
      let hi = t.n in
      incr rounds;
      Mdp_obs.Metrics.observe "lts/frontier_width" (hi - !lo);
      expand !lo hi;
      spill_down p;
      lo := hi
    done

  let explore ?(max_states = 200_000) ?cancel ~packing ?mem_budget ?spill_dir
      ~init ~label_of ~step_words () =
    Mdp_obs.Metrics.span "lts/explore" @@ fun () ->
    let t = make ?mem_budget ?spill_dir packing in
    let p = t.p in
    (* The root: the first state, id 0, a full record. *)
    p.pk.pk_blit init p.cand_buf 0;
    ignore
      (packed_new_state t p (get_dcache p) ~parent:(-1) ~parent_words:[||]
         ~parent_depth:0 p.cand_buf
         (P.hash_words p.cand_buf p.pk.pk_words)
        : state_id);
    if t.n > max_states then too_many t max_states;
    (try explore_rounds t p ~max_states ~cancel ~label_of ~step_words
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       (match e with
       | Mdp_obs.Cancel.Cancelled _ -> Mdp_obs.Metrics.incr "lts/cancelled"
       | _ -> ());
       (* The LTS is about to become garbage: nothing will read its
          spill files again. *)
       drop_spill t;
       Printexc.raise_with_backtrace e bt);
    Mdp_obs.Metrics.add "lts/states" t.n;
    packed_compact p t.n;
    (match p.spill with
    | None -> ()
    | Some ss ->
      Mdp_obs.Metrics.add "lts/spill_chunks" ss.ss_chunks;
      Mdp_obs.Metrics.add "lts/spill_tables" ss.ss_tables;
      Mdp_obs.Metrics.add "lts/spill_bytes" ss.ss_bytes;
      Mdp_obs.Metrics.add "lts/spill_faults" (Spill.faults ss.ss_spill));
    if Mdp_obs.Metrics.enabled () then begin
      let ms = packed_mem p t.n t.ntrans in
      Mdp_obs.Metrics.add "lts/packed_state_bytes" ms.ms_state_bytes;
      Mdp_obs.Metrics.add "lts/packed_edge_bytes" ms.ms_edge_bytes;
      Mdp_obs.Metrics.add "lts/packed_index_bytes" ms.ms_index_bytes;
      Mdp_obs.Metrics.add "lts/packed_dedup_bytes" ms.ms_dedup_bytes;
      Mdp_obs.Metrics.add "lts/packed_total_bytes" ms.ms_total_bytes;
      Mdp_obs.Metrics.add "lts/packed_full_states" ms.ms_full_states;
      Mdp_obs.Metrics.add "lts/packed_delta_states" ms.ms_delta_states;
      Array.iter
        (fun sh -> Mdp_obs.Metrics.observe "lts/shard_occupancy" sh.count)
        p.shards
    end;
    t

  let dag_fold t ~(combine : 'a list -> 'a) ~(sink : 'a) =
    (* Memoised fold over the reachable DAG from the initial state;
       None when a cycle is reachable. *)
    if t.n = 0 then None
    else begin
      let memo = Array.make t.n None in
      let on_stack = Array.make t.n false in
      let exception Cyclic in
      let rec value s =
        match memo.(s) with
        | Some v -> v
        | None ->
          if on_stack.(s) then raise Cyclic;
          on_stack.(s) <- true;
          let dsts = ref [] in
          iter_row t.p s (fun _ d -> dsts := d :: !dsts);
          let v =
            if !dsts = [] then sink else combine (List.map value !dsts)
          in
          on_stack.(s) <- false;
          memo.(s) <- Some v;
          v
      in
      match value (initial t) with v -> Some v | exception Cyclic -> None
    end

  let longest_path t =
    dag_fold t ~sink:0
      ~combine:(fun depths -> 1 + List.fold_left max 0 depths)

  let count_maximal_paths t =
    dag_fold t ~sink:1 ~combine:(fun counts -> List.fold_left ( + ) 0 counts)

  let dot_escape s =
    String.concat ""
      (List.map
         (function '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))

  let to_dot ~graph_name ~label_style t =
    let buf = Buffer.create 1024 in
    let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    addf "digraph %s {\n  rankdir=LR;\n" graph_name;
    iter_states t (fun s ->
        let init_mark = if s = 0 then ", penwidth=2" else "" in
        addf "  n%d [label=\"s%d\"%s];\n" s s init_mark);
    (* each interned label's attributes, rendered once *)
    let attrs =
      Array.map
        (fun label ->
          let style = match label_style label with "" -> "" | st -> ", " ^ st in
          Printf.sprintf " [label=\"%s\"%s];\n"
            (dot_escape (Format.asprintf "%a" L.pp label))
            style)
        (Array.sub t.p.lbl_data 0 t.p.nlabels)
    in
    for src = 0 to t.n - 1 do
      iter_row t.p src (fun lid dst ->
          Buffer.add_string buf "  n";
          Buffer.add_string buf (string_of_int src);
          Buffer.add_string buf " -> n";
          Buffer.add_string buf (string_of_int dst);
          Buffer.add_string buf attrs.(lid))
    done;
    addf "}\n";
    Buffer.contents buf
end
