(** Contiguous-chunk fan-out over OCaml 5 domains.

    [map_chunks] splits [0, n) into at most [jobs] contiguous
    half-open ranges [lo, hi) with the standard balanced bound
    [k * n / jobs]. The calling domain always processes the first
    chunk itself; only the remaining chunks get a [Domain.spawn].
    With [jobs <= 1] (or [n <= 1]) nothing is spawned at all, so
    callers can fall back to the sequential path by clamping [jobs]
    without paying any domain overhead.

    The chunk function must be safe to run concurrently: it may write
    to disjoint slices of shared arrays, but must not touch shared
    mutable structures (hash tables, growable buffers, the calling
    LTS, ...). *)

val map_chunks : jobs:int -> int -> (int -> int -> 'a) -> 'a list
(** [map_chunks ~jobs n f] runs [f lo hi] over each chunk — first
    chunk on the calling domain, the rest on spawned domains — and
    returns the results in chunk order (deterministic for any
    [jobs]). Empty list when [n <= 0]. When chunks raise, every spawned
    domain is still joined before the first exception in chunk order
    is re-raised. *)
