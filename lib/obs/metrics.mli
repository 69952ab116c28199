(** Low-overhead metrics and phase tracing.

    Counters, log-scale latency histograms and named spans, sharded
    per-{!Domain} through [Domain.DLS] so hot paths never contend on a
    lock.  Shards are merged deterministically when a {!snapshot} is
    taken: counters sum, histograms sum bucket-wise, spans sort by
    start time, and every series is ordered by name — the same inputs
    produce the same snapshot however the work is split across domains.

    The subsystem is disabled by default and every recording entry
    point starts with a single [Atomic.get] check, so instrumentation
    left in hot loops costs one branch when off.  Enable it with
    {!set_enabled} or by exporting [MDPRIV_METRICS=1] in the
    environment. *)

(** {1 Switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Recording}

    All of these are no-ops while the subsystem is disabled. *)

val incr : string -> unit
(** Add 1 to a named counter. *)

val add : string -> int -> unit
(** Add an arbitrary amount to a named counter.  Batch hot-loop counts
    locally and [add] them once per round rather than calling {!incr}
    per event. *)

val observe : string -> int -> unit
(** Record a sample in a named histogram.  Buckets are powers of two
    ([0], [1], [2-3], [4-7], ...), so the unit is whatever the caller
    samples — nanoseconds for latencies, element counts for widths. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] against the monotonic clock and records
    a span plus a [name] latency observation.  The span is recorded
    even if [f] raises (the exception is re-raised). *)

val set_gauge : string -> int -> unit
(** Set a named gauge (last write wins).  Gauges are point-in-time
    values — process RSS, arena bytes — set explicitly at sampling
    points, never from hot loops and never implicitly by {!snapshot}:
    a run that never sets a gauge carries no machine-dependent values,
    which preserves the byte-identical-snapshot guarantee for the
    deterministic analyses. *)

val sample_memory : unit -> unit
(** Set the process memory gauges: [mem/rss_bytes] (from
    [/proc/self/statm]; 0 where unavailable), [mem/heap_bytes] and
    [mem/top_heap_bytes] (from [Gc.quick_stat]).  Call at reporting
    points — the serve metrics endpoint, benchmark epilogues — not in
    loops. *)

val rss_bytes : unit -> int
(** Current resident set size in bytes ([/proc/self/statm]); 0 where
    unavailable.  Works regardless of the enabled switch. *)

(** {1 Snapshots} *)

type histogram = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;  (** (upper bound, count), non-empty buckets *)
}

type span_record = {
  sp_name : string;
  sp_start_ns : int;  (** monotonic reading; comparable within one process *)
  sp_dur_ns : int;
  sp_domain : int;
}

type snapshot = {
  counters : (string * int) list;      (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
  gauges : (string * int) list;        (** sorted by name; last-set values *)
  spans : span_record list;            (** sorted by start, then name *)
}

val snapshot : unit -> snapshot
(** Merge all shards into a deterministic snapshot.  Does not clear
    them. *)

val reset : unit -> unit
(** Clear every shard's counters, histograms and spans. *)

(** {1 Rendering} *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Human-readable summary: counters, histogram stats, per-span-name
    totals. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition format.  Metric names are sanitised and
    prefixed with [mdpriv_]; histograms render as cumulative
    [_bucket]/[_sum]/[_count] series. *)

val spans_to_jsonl : snapshot -> string
(** One JSON object per line per span:
    [{"name":...,"start_ns":...,"dur_ns":...,"domain":...}]. *)

val phase_table : wall_s:float -> snapshot -> (string * float * float) list
(** [phase_table ~wall_s snap] extracts spans whose name starts with
    ["phase/"] and returns
    [(phase, seconds, fraction of wall_s)] rows in first-execution
    order, with same-named spans summed into one row (a phase that
    fires repeatedly, like [phase/spill], shows its aggregate). *)
