(* Byte-level machinery for the packed LTS engine: LEB128 varints, a
   chunked append-only byte arena, a byte-granular word-diff codec, and
   the avalanche hash used for shard placement.

   Everything here is deliberately free of per-call allocation on the
   hot paths: encoders write into caller-owned scratch [Bytes], decoders
   advance a caller-owned cursor. *)

(* ------------------------------------------------------------------ *)
(* LEB128 varints *)

(* Encode [v] at [pos] in [b]; returns the position past the last byte
   written. [v] is read as an unsigned 63-bit value (a wordmap group
   with bit 62 set is negative), which takes at most 9 bytes. *)
let put_varint b pos v =
  let pos = ref pos and v = ref v in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !v);
  !pos + 1

let varint_size v =
  let rec go n v = if v lsr 7 = 0 then n else go (n + 1) (v lsr 7) in
  go 1 v

(* Zigzag: signed deltas to non-negative varint payloads. *)
let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))

(* A decode cursor: [b] is the chunk holding the record, [pos] the
   intra-chunk offset. Reused across calls to avoid allocation. *)
type cursor = { mutable b : Bytes.t; mutable pos : int }

let cursor () = { b = Bytes.empty; pos = 0 }

let get_varint c =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let byte = Char.code (Bytes.unsafe_get c.b c.pos) in
    c.pos <- c.pos + 1;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    continue := byte >= 0x80
  done;
  !v

(* ------------------------------------------------------------------ *)
(* Word patches *)

(* A 63-bit word is stored as the set of bytes in which it differs from
   a base word: one mask byte (bit i = byte i differs) followed by the
   differing bytes of the new value. Sparse bitset words differ from
   their parent (or from zero) in one or two bytes, so a typical patch
   is 2-3 bytes instead of 8. *)

let put_word_patch b pos ~base w =
  let x = base lxor w in
  let mask = ref 0 and p = ref (pos + 1) in
  for i = 0 to 7 do
    if (x lsr (i * 8)) land 0xff <> 0 then begin
      mask := !mask lor (1 lsl i);
      Bytes.unsafe_set b !p (Char.unsafe_chr ((w lsr (i * 8)) land 0xff));
      incr p
    end
  done;
  Bytes.unsafe_set b pos (Char.unsafe_chr !mask);
  !p

let word_patch_size ~base w =
  let x = base lxor w in
  let n = ref 1 in
  for i = 0 to 7 do
    if (x lsr (i * 8)) land 0xff <> 0 then incr n
  done;
  !n

let get_word_patch c ~base =
  let mask = Char.code (Bytes.unsafe_get c.b c.pos) in
  c.pos <- c.pos + 1;
  if mask = 0 then base
  else begin
    let w = ref base in
    let m = ref mask in
    while !m <> 0 do
      let i = !m land (- !m) in
      let byte_i =
        (* index of the single set bit of [i] *)
        let rec idx k b = if b = 1 then k else idx (k + 1) (b lsr 1) in
        idx 0 i
      in
      let byte = Char.code (Bytes.unsafe_get c.b c.pos) in
      c.pos <- c.pos + 1;
      w := (!w land lnot (0xff lsl (byte_i * 8))) lor (byte lsl (byte_i * 8));
      m := !m land (!m - 1)
    done;
    !w
  end

(* ------------------------------------------------------------------ *)
(* Chunked byte arena *)

(* Append-only byte storage in fixed-size chunks. Records never
   straddle a chunk boundary (the tail of a chunk is padded when a
   record does not fit), so a decoder can address any record with one
   chunk lookup and then read plain bytes. Compared to one growable
   [Bytes], chunking avoids ever copying the arena to grow it.

   The same two properties make the arena spillable: a sealed chunk is
   immutable, and chunk [i] evicted in order lands at file offset
   [i * chunk_size], so the disk tier needs no index — [seek] just
   routes spilled-prefix chunks through {!Spill.chunk}. *)

module Arena = struct
  (* 64 KiB chunks: small enough that a cached artifact for a toy model
     costs one chunk, large enough that a 200 MB ten-million-state arena
     is only ~3000 chunk pointers. *)
  let chunk_bits = 16
  let chunk_size = 1 lsl chunk_bits

  type t = {
    mutable chunks : Bytes.t array;
    mutable nchunks : int;
    mutable len : int; (* global length, padding included *)
    mutable spilled : int;
        (* chunks [0, spilled) live in [sfile] at offset i * chunk_size;
           their RAM slots are cleared. Eviction is strictly in chunk
           order and never reaches the open chunk. *)
    mutable sfile : Spill.file option;
  }

  let create () =
    { chunks = [||]; nchunks = 0; len = 0; spilled = 0; sfile = None }

  let bytes t = t.len
  let resident_bytes t = (t.nchunks - t.spilled) * chunk_size

  (* Sealed chunks still resident: everything strictly below the open
     chunk that has not been evicted yet. *)
  let evictable t = min (t.len lsr chunk_bits) t.nchunks - t.spilled

  (* Evict the oldest resident sealed chunk. Padding bytes go to disk
     verbatim — offsets never point into padding, so readback is
     byte-faithful where it matters. *)
  let evict_chunk t sfile =
    let i = t.spilled in
    let (_ : int) = Spill.append sfile t.chunks.(i) ~pos:0 ~len:chunk_size in
    t.chunks.(i) <- Bytes.empty;
    t.sfile <- Some sfile;
    t.spilled <- i + 1

  let new_chunk t =
    if t.nchunks = Array.length t.chunks then begin
      let cap = max 4 (2 * t.nchunks) in
      let bigger = Array.make cap Bytes.empty in
      Array.blit t.chunks 0 bigger 0 t.nchunks;
      t.chunks <- bigger
    end;
    t.chunks.(t.nchunks) <- Bytes.create chunk_size;
    t.nchunks <- t.nchunks + 1

  (* Append [n] bytes of [src] (from 0) as one record; returns its
     global offset. [n] must be at most [chunk_size]. *)
  let append t src n =
    if n > chunk_size then invalid_arg "Arena.append: record exceeds chunk";
    if n = 0 then t.len
    else begin
      let intra = t.len land (chunk_size - 1) in
      (* pad to the next chunk boundary when the record would straddle *)
      if intra + n > chunk_size then t.len <- (t.len lor (chunk_size - 1)) + 1;
      while t.len lsr chunk_bits >= t.nchunks do
        new_chunk t
      done;
      let off = t.len in
      Bytes.blit src 0 t.chunks.(off lsr chunk_bits) (off land (chunk_size - 1)) n;
      t.len <- off + n;
      off
    end

  (* Point [c] at the record starting at global offset [off]. Spilled
     chunks come back as pinned-cache copies; the extra compare on the
     resident path is noise against the decode that follows. *)
  let seek t c off =
    let i = off lsr chunk_bits in
    c.b <-
      (if i < t.spilled then
         Spill.chunk (Option.get t.sfile) ~idx:i ~size:chunk_size
       else t.chunks.(i));
    c.pos <- off land (chunk_size - 1)
end

(* ------------------------------------------------------------------ *)
(* Hashing *)

(* Murmur-style finaliser: the shard index and slot come from distinct
   bit ranges of the hash, so it must avalanche well. *)
let fmix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0xff51afd7ed558cc in
  let h = h lxor (h lsr 33) in
  let h = h * 0xc4ceb9fe1a85ec5 in
  h lxor (h lsr 33)

let hash_words w n =
  let h = ref n in
  for i = 0 to n - 1 do
    h := (!h * 0x100000001b3) lxor Array.unsafe_get w i
  done;
  fmix !h land max_int

(* ------------------------------------------------------------------ *)
(* uint32 side tables *)

(* Dense per-state u32 values (arena offsets, edge-row offsets) kept in
   [Bytes] at 4 bytes per state instead of a boxed-free but 8-byte int
   array. *)
module U32 = struct
  type t = { mutable b : Bytes.t; mutable cap : int }

  let create () = { b = Bytes.create (4 * 1024); cap = 1024 }

  let ensure t n =
    if n > t.cap then begin
      let cap = max n (2 * t.cap) in
      let bigger = Bytes.create (4 * cap) in
      Bytes.blit t.b 0 bigger 0 (4 * t.cap);
      t.b <- bigger;
      t.cap <- cap
    end

  let set t i v =
    if v < 0 || v > 0xffff_ffff then
      failwith "Mdp_lts: packed arena exceeds the 4 GiB offset range";
    ensure t (i + 1);
    Bytes.set_int32_le t.b (4 * i) (Int32.of_int v)

  let get t i = Int32.to_int (Bytes.get_int32_le t.b (4 * i)) land 0xffff_ffff

  (* Shrink the backing store to exactly [n] entries: growth doubles,
     so a finished exploration can be holding up to 2x the bytes it
     needs. Called once when an LTS is sealed. *)
  let trim t n =
    if n < t.cap then begin
      t.b <- Bytes.sub t.b 0 (4 * max 1 n);
      t.cap <- max 1 n
    end

  let bytes t = 4 * t.cap
end

(* Dense per-state byte values (delta-chain depths). *)
module U8 = struct
  type t = { mutable b : Bytes.t; mutable cap : int }

  let create () = { b = Bytes.make 1024 '\000'; cap = 1024 }

  let ensure t n =
    if n > t.cap then begin
      let cap = max n (2 * t.cap) in
      let bigger = Bytes.make cap '\000' in
      Bytes.blit t.b 0 bigger 0 t.cap;
      t.b <- bigger;
      t.cap <- cap
    end

  let set t i v =
    ensure t (i + 1);
    Bytes.unsafe_set t.b i (Char.unsafe_chr (v land 0xff))

  let get t i = Char.code (Bytes.unsafe_get t.b i)

  let trim t n =
    if n < t.cap then begin
      t.b <- Bytes.sub t.b 0 (max 1 n);
      t.cap <- max 1 n
    end

  let bytes t = t.cap
end
