(** Content-addressed cache of compressed sizes for the NCD kernel.

    The tuner asks for the same [C(x)] and [C(x·y)] terms over and over —
    every generation re-scores candidates against the same baseline, and
    the GA revisits flag vectors whose compiled streams it has already
    measured.  This cache memoizes both term shapes, keyed by stream
    digest (MD5), so equal {e content} hits regardless of which binary
    produced it — replacing the old ad-hoc physical-equality
    [baseline_csize] plumbing in the tuner.

    The table is a {!Util.Lru} with one unit of weight per entry:
    domain-safe, compression runs outside its lock, and the entry bound
    keeps memory flat over long sweeps.  Cached
    values are exact compressed sizes, so hitting the cache can never
    change an NCD result — only the {!hits}/{!misses} counters (also
    mirrored to telemetry as [sizecache.hit]/[sizecache.miss]) reveal it
    was there.  Under racing misses the counters may depend on
    scheduling; results never do.  The compression {!Lz.level} is fixed
    at {!create} time, so one cache never mixes sizes from different
    match finders. *)

type t

type backing = {
  load : string -> int option;
  save : string -> int -> unit;
}
(** An optional durable second tier (serving mode wires this to the
    persistent artifact store): [load] is consulted after an in-memory
    miss (a hit is promoted into the table and counted in telemetry as
    [sizecache.backing_hit]), [save] is written through on every exact
    size learned.  Both run outside the cache lock and must be safe to
    call from any domain.  The backing must only ever return exact sizes
    previously [save]d at this cache's level — the caller owns key
    disambiguation across levels. *)

val default_capacity : int
(** LRU bound used when [create]'s [?capacity] is omitted (4096). *)

val create : ?capacity:int -> ?level:Lz.level -> ?backing:backing -> unit -> t
(** [create ()] — an empty cache holding at most [capacity] entries
    (least-recently-used evicted first).  [level] defaults to
    [Lz.default_level ()] {e at creation time}. *)

val level : t -> Lz.level
(** The compression level every size in this cache was measured at. *)

val size : t -> string -> int
(** [size t x] = [Lz.compressed_size ~level:(level t) x], memoized —
    the [C(x)] term. *)

val size_pair : t -> string -> string -> int
(** [size_pair t x y] = [Lz.compressed_size_pair ~level:(level t) x y],
    memoized — the [C(x·y)] term.  The pair key is ordered: [x·y] and
    [y·x] are distinct streams with distinct sizes. *)

val peek_pair : t -> string -> string -> int option
(** Probe the pair entry without computing on a miss (counts a hit or a
    miss like {!size_pair}; an in-memory miss still consults the backing
    tier).  The NCD early-exit path probes first so a warm exact size
    short-circuits the capped compression. *)

val insert_pair : t -> string -> string -> int -> unit
(** Publish an exact pair size computed outside the cache (keep-first on
    a racing duplicate; evicts like any other insert; written through to
    the backing tier; counts nothing).  Only ever insert values equal to
    [Lz.compressed_size_pair ~level:(level t) x y] — upper bounds from a
    pruned compression must not enter the table. *)

val hits : t -> int
(** Lookups served from the table. *)

val misses : t -> int
(** Lookups that had to compress. *)

val length : t -> int
(** Entries currently resident (≤ {!capacity}). *)

val capacity : t -> int
