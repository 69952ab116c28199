(* Disk tier for the packed LTS engine.

   A spill run is one directory holding append-only files. Writers are
   single-domain (the exploring domain) and strictly
   sequential — sealed arena chunks and sealed dedup tables are
   immutable once written, so a spill file never needs a rename, a
   rewrite or an fsync barrier for correctness (the data is a cache of
   what RAM held; a crash loses nothing but the run itself).

   Reads go through bounded [Unix.map_file] windows rather than one
   whole-file mapping: mapped pages count toward the process address
   space (`ulimit -v`), so mapping a multi-GB spill file would defeat
   the point of spilling. Windows are cached per domain (never shared,
   never locked); dropping a window is just letting the GC collect the
   bigarray, which unmaps it.

   Above the windows sits a per-domain pinned-chunk cache holding
   verbatim [Bytes] copies of recently faulted arena chunks, so
   delta-chain decodes that revisit a spilled chunk pay the mmap copy
   once. Chunks are never patched in place — in-flight decode cursors
   hold references into chunk bytes — so a fault always allocates a
   fresh copy. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let empty_big : bigstring = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

type file = {
  f_uid : int;  (* global id: keys the domain-local caches *)
  f_fd : Unix.file_descr;
  f_owner : t;
  mutable f_len : int;
      (* appended bytes; only the writing domain mutates it, and
         readers on other domains start after the exploration that
         wrote it has returned *)
}

and t = {
  sp_dir : string;
  mutable sp_files : (string * file) list;
  mutable sp_live : bool;
  sp_faults : int Atomic.t;
      (* chunk loads + window mappings; atomic because readers on
         several domains fault concurrently *)
}

exception Io_error of string

(* Every OS failure of the tier surfaces as [Io_error], so callers can
   report a full disk or an unusable spill directory without catching
   unrelated [Unix_error]s. *)
let io f =
  try f () with
  | Unix.Unix_error (err, fn, arg) ->
    raise (Io_error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message err)))
  | Sys_error msg -> raise (Io_error msg)

(* ------------------------------------------------------------------ *)
(* Run-directory lifecycle *)

(* Every live run is registered so process exit (normal or via a failed
   bench gate calling [exit 1]) removes the directories: spill files
   are caches, never state, so teardown is unconditional. *)
let registry : t list ref = ref []
let registry_mu = Mutex.create ()
let uids = Atomic.make 1
let run_counter = Atomic.make 0
let at_exit_installed = Atomic.make false

type wslot = {
  mutable w_map : bigstring;  (* empty_big = not mapped *)
  mutable w_base : int;
  mutable w_len : int;
}

(* Per-domain window-mapping table: outer array indexed by file uid,
   inner by window number (see the windowed read path below). Cleared
   wholesale when the owning domain removes a run, so a dropped run's
   mappings are released without waiting for finalisation; worker
   domains are transient and their tables die with them. *)
let wcache_key : wslot array array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let drop_windows () = Domain.DLS.get wcache_key := [||]
let new_wslot () = { w_map = empty_big; w_base = 0; w_len = 0 }

let rec remove_registered t = function
  | [] -> []
  | x :: rest -> if x == t then rest else x :: remove_registered t rest

let remove t =
  (* Idempotent: called from abort paths, explicit drops, GC finalisers
     and the at_exit sweep, in any order. *)
  Mutex.lock registry_mu;
  let live = t.sp_live in
  t.sp_live <- false;
  registry := remove_registered t !registry;
  Mutex.unlock registry_mu;
  if live then begin
    List.iter
      (fun (name, f) ->
        (try Unix.close f.f_fd with Unix.Unix_error _ -> ());
        try Sys.remove (Filename.concat t.sp_dir name) with Sys_error _ -> ())
      t.sp_files;
    (try Unix.rmdir t.sp_dir with Unix.Unix_error _ -> ());
    (* Release this domain's mappings of the removed files now rather
       than at finalisation; live runs simply remap on their next
       read. *)
    drop_windows ()
  end

let remove_all () =
  let snapshot =
    Mutex.lock registry_mu;
    let l = !registry in
    Mutex.unlock registry_mu;
    l
  in
  List.iter remove snapshot

let create ?dir () =
  let base = match dir with Some d -> d | None -> Filename.get_temp_dir_name () in
  let rec mk attempts =
    let name =
      Printf.sprintf "mdpriv-spill-%d-%d" (Unix.getpid ())
        (Atomic.fetch_and_add run_counter 1)
    in
    let path = Filename.concat base name in
    match Unix.mkdir path 0o700 with
    | () -> path
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when attempts > 0 ->
      mk (attempts - 1)
  in
  let path = io (fun () -> mk 16) in
  let t =
    { sp_dir = path; sp_files = []; sp_live = true; sp_faults = Atomic.make 0 }
  in
  Mutex.lock registry_mu;
  registry := t :: !registry;
  Mutex.unlock registry_mu;
  if not (Atomic.exchange at_exit_installed true) then at_exit remove_all;
  t

let dir t = t.sp_dir
let live t = t.sp_live
let faults t = Atomic.get t.sp_faults

(* ------------------------------------------------------------------ *)
(* Append-only files *)

let file t name =
  if not t.sp_live then invalid_arg "Spill.file: run removed";
  let fd =
    (* a run missing one of its files is useless: tear it down *)
    try
      io (fun () ->
          Unix.openfile
            (Filename.concat t.sp_dir name)
            [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
            0o600)
    with e ->
      remove t;
      raise e
  in
  let f =
    { f_uid = Atomic.fetch_and_add uids 1; f_fd = fd; f_owner = t; f_len = 0 }
  in
  t.sp_files <- (name, f) :: t.sp_files;
  f

(* Append [len] bytes of [b] from [pos]; returns the record's file
   offset. Single-writer, so plain sequential writes. *)
let append f b ~pos ~len =
  let off = f.f_len in
  let written = ref 0 in
  io (fun () ->
      while !written < len do
        match Unix.write f.f_fd b (pos + !written) (len - !written) with
        | w -> written := !written + w
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done);
  f.f_len <- off + len;
  off

(* ------------------------------------------------------------------ *)
(* Windowed read path *)

(* 1 MiB windows in a per-domain, per-file table indexed by window
   number: each window of a file is mapped at most once per domain and
   kept until the run is removed (a remap happens only when the file
   extends past what an existing mapping covers, which is bounded by
   append rounds, not reads). Mapped pages count toward the process
   address space, so the invariants that matter are (a) resident
   windows never exceed the spill size per domain, and (b) reads never
   allocate fresh mappings — an eviction-churning cache here would pile
   up dead 1 MiB mappings faster than the GC finalises them and blow
   through `ulimit -v` from the read path alone. *)
let window_bits = 20
let window_size = 1 lsl window_bits

let map_window f base =
  Atomic.incr f.f_owner.sp_faults;
  let len = min window_size (f.f_len - base) in
  let g =
    io (fun () ->
        Unix.map_file f.f_fd ~pos:(Int64.of_int base) Bigarray.char
          Bigarray.c_layout false [| len |])
  in
  (Bigarray.array1_of_genarray g, len)

let grow_slots arr n mk =
  let cap = max n (max 8 (2 * Array.length arr)) in
  let bigger = Array.init cap (fun i -> if i < Array.length arr then arr.(i) else mk i) in
  bigger

(* The window slot covering [off], valid through at least
   [min (off + want) f_len]. [want] never exceeds [window_size]. *)
let window f off =
  let widx = off lsr window_bits in
  let cache = Domain.DLS.get wcache_key in
  if f.f_uid >= Array.length !cache then
    cache := grow_slots !cache (f.f_uid + 1) (fun _ -> [||]);
  let tab = !cache in
  if widx >= Array.length tab.(f.f_uid) then
    tab.(f.f_uid) <- grow_slots tab.(f.f_uid) (widx + 1) (fun _ -> new_wslot ());
  let s = tab.(f.f_uid).(widx) in
  if s.w_len < min f.f_len ((widx lsl window_bits) + window_size) - (widx lsl window_bits)
  then begin
    (* not mapped yet, or the file grew past what this mapping covered *)
    let base = widx lsl window_bits in
    let map, len = map_window f base in
    s.w_map <- map;
    s.w_base <- base;
    s.w_len <- len
  end;
  s

(* Copy [len] bytes at file offset [off] into [dst] at [dst_pos],
   crossing window boundaries as needed. *)
let read f ~off ~len dst ~dst_pos =
  let off = ref off and remaining = ref len and dpos = ref dst_pos in
  while !remaining > 0 do
    let s = window f !off in
    let avail = s.w_base + s.w_len - !off in
    let n = min avail !remaining in
    let m = s.w_map in
    let src0 = !off - s.w_base in
    for i = 0 to n - 1 do
      Bytes.unsafe_set dst (!dpos + i) (Bigarray.Array1.unsafe_get m (src0 + i))
    done;
    off := !off + n;
    dpos := !dpos + n;
    remaining := !remaining - n
  done

(* One sealed 5-byte dedup entry at [off]: (tag byte lsl 32) lor u32.
   Fast path reads straight from the window; entries that straddle a
   window boundary fall back to the byte loop. *)
let entry5 f ~off =
  let s = window f off in
  let i = off - s.w_base in
  if i + 5 <= s.w_len then begin
    let m = s.w_map in
    let b0 = Char.code (Bigarray.Array1.unsafe_get m i) in
    let b1 = Char.code (Bigarray.Array1.unsafe_get m (i + 1)) in
    let b2 = Char.code (Bigarray.Array1.unsafe_get m (i + 2)) in
    let b3 = Char.code (Bigarray.Array1.unsafe_get m (i + 3)) in
    let b4 = Char.code (Bigarray.Array1.unsafe_get m (i + 4)) in
    (b4 lsl 32) lor (b3 lsl 24) lor (b2 lsl 16) lor (b1 lsl 8) lor b0
  end
  else begin
    let tmp = Bytes.create 5 in
    read f ~off ~len:5 tmp ~dst_pos:0;
    let u32 = Int32.to_int (Bytes.get_int32_le tmp 0) land 0xffff_ffff in
    (Char.code (Bytes.get tmp 4) lsl 32) lor u32
  end

(* ------------------------------------------------------------------ *)
(* Pinned-chunk cache *)

(* Verbatim copies of spilled arena chunks, direct-mapped per domain.
   64 KiB chunks x 64 slots = 4 MiB per long-lived domain; short-lived
   fan-out domains cost at most that transiently. *)
let pinned_slots = 64

type pcache = {
  pc_keys : int array;  (* (uid lsl 24) lor chunk index; -1 empty *)
  pc_chunks : Bytes.t array;
}

let pcache_key : pcache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        pc_keys = Array.make pinned_slots (-1);
        pc_chunks = Array.make pinned_slots Bytes.empty;
      })

(* The [size]-byte chunk [idx] of [f], from the pinned cache or freshly
   copied out of the mapped view. The returned bytes are immutable by
   convention and always a private copy, so callers may hold cursors
   into them indefinitely. *)
let chunk f ~idx ~size =
  let pc = Domain.DLS.get pcache_key in
  let key = (f.f_uid lsl 24) lor idx in
  let slot = ((idx * 7) + f.f_uid) mod pinned_slots in
  if Array.unsafe_get pc.pc_keys slot = key then Array.unsafe_get pc.pc_chunks slot
  else begin
    Atomic.incr f.f_owner.sp_faults;
    let b = Bytes.create size in
    read f ~off:(idx * size) ~len:size b ~dst_pos:0;
    Array.unsafe_set pc.pc_keys slot key;
    Array.unsafe_set pc.pc_chunks slot b;
    b
  end
