(** Disk tier for the packed LTS engine.

    A spill run is one temporary directory of append-only files holding
    sealed arena chunks and sealed dedup tables evicted under a
    resident-byte budget. Writes are sequential and single-domain;
    reads go through bounded [Unix.map_file] windows (whole-file
    mappings would count against [ulimit -v], defeating the point) with
    a per-domain pinned-chunk cache of verbatim [Bytes] copies above
    them.

    Spill files are caches, never state: removal is always safe, and
    every live run is torn down by an [at_exit] sweep so no directory
    outlives the process — normal exit, failed bench gates and uncaught
    exceptions included. *)

type t
(** One spill run: a directory plus its files and fault counter. *)

exception Io_error of string
(** Any OS failure of the tier — an unusable directory, a full disk, a
    failed mapping — with the failing call, its path and the system
    message. Raised by {!create}, {!file}, {!append} and the read
    path; a failed {!file} removes its run first. *)

type file
(** An append-only file inside a run. *)

val create : ?dir:string -> unit -> t
(** Make a fresh run directory ([mdpriv-spill-<pid>-<n>]) under [dir]
    (default: the system temp directory) and register it for the
    process-exit sweep. *)

val dir : t -> string
val live : t -> bool

val remove : t -> unit
(** Close and delete the run's files and directory. Idempotent — abort
    paths, explicit drops, GC finalisers and the exit sweep may race.
    Reads against a removed run's files fail. *)

val remove_all : unit -> unit
(** Remove every live run of this process (the [at_exit] sweep; bench
    calls it explicitly before gate-failure exits). *)

val faults : t -> int
(** Read faults served from disk so far: pinned-chunk misses plus
    window mappings, across all domains. *)

val file : t -> string -> file
(** Create (truncating) an append-only file in the run directory. *)

val append : file -> Bytes.t -> pos:int -> len:int -> int
(** Append [len] bytes, returning their file offset. Single-writer:
    only the exploration's merging domain appends, and worker domains
    are always (re)spawned after the appends they could observe. *)

val read : file -> off:int -> len:int -> Bytes.t -> dst_pos:int -> unit
(** Copy bytes out of the mapped view, crossing window boundaries as
    needed. *)

val entry5 : file -> off:int -> int
(** One sealed 5-byte dedup entry at [off], packed as
    [(tag byte lsl 32) lor u32le]. *)

val chunk : file -> idx:int -> size:int -> Bytes.t
(** The [size]-byte chunk starting at [idx * size], served from the
    calling domain's pinned-chunk cache or copied out of the mapped
    view on a fault. Always a private copy: callers may hold cursors
    into the result indefinitely. *)

