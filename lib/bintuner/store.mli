(** Persistent, content-addressed artifact store for serving mode.

    One-shot tuning keeps its compiled binaries and compressed sizes in
    process-local caches ({!Memo}, {!Compress.Sizecache},
    {!Incremental}) that die with the process.  The store is the durable
    layer behind a long-running {!Server}: MD5-keyed entries — compiled
    binaries and C(x)/C(xy) compressed sizes — sharded across 256
    two-hex-character prefix directories, byte-bounded with LRU eviction
    (file mtimes seed the recency order of a reopened store), and
    crash-safe end to end:

    - every write lands in a same-shard temp file and is [rename]d into
      place, so a crash can never leave a half-visible entry;
    - every read validates the entry's recorded payload length and MD5;
      a torn or corrupt entry is moved to [dir/quarantine/] and reported
      as a miss — the daemon recomputes instead of crashing;
    - stale temp files from a crashed writer are swept at {!create}.

    Everything served from the store is content the caller could
    recompute: compilation and compression are pure, so a hit is
    bit-identical to a recompute and the store is lossless by
    construction (the serve differential test pins warm-store runs to
    cold one-shot runs).  Domain-safe: the residency index is a
    {!Util.Lru} weighted by on-disk bytes, and file IO runs outside its
    lock.  Traffic is mirrored to telemetry as [store.hit] /
    [store.miss] / [store.evict] / [store.quarantine] /
    [store.write_error]. *)

type t

val default_max_bytes : int
(** Byte budget used when [create]'s [?max_bytes] is omitted (256 MiB). *)

val create : ?max_bytes:int -> string -> t
(** [create dir] opens (or initializes) the store rooted at [dir],
    creating the directory if needed, sweeping crash leftovers, and
    rebuilding the LRU index from the existing shards (oldest mtime =
    first eviction victim; evicts immediately if the directory already
    exceeds the budget). *)

val dir : t -> string

val find : t -> string -> string option
(** Look a key up, refreshing its recency.  [None] on a cold key, an
    evicted entry, or a torn one (which is quarantined on the way out).
    Every call counts exactly one hit or one miss. *)

val store : t -> string -> string -> unit
(** Publish a payload under a key (keep-first on a racing duplicate —
    entries are deterministic per key), evicting from the LRU tail until
    the byte budget holds.  An entry bigger than the whole budget is
    never admitted.  Crash-safe (temp file + rename).  A write that fails
    (a full disk, a shard path that is not a directory) publishes
    nothing, leaves no temp file and never raises. *)

val find_binary : t -> string -> Isa.Binary.t option
(** {!find} + unmarshal of a compiled binary; an entry that fails to
    unmarshal (e.g. written by an incompatible build) is quarantined and
    reported as a miss. *)

val store_binary : t -> string -> Isa.Binary.t -> unit

val find_size : t -> string -> int option
(** {!find} + integer decode of a compressed-size entry. *)

val store_size : t -> string -> int -> unit

val hits : t -> int
(** Lookups served from disk (after validation). *)

val misses : t -> int
(** Lookups that found nothing servable (cold, evicted, or torn). *)

val evictions : t -> int
(** Entries deleted to hold the byte budget. *)

val quarantined : t -> int
(** Torn or corrupt entries moved to [dir/quarantine/] (each also counts
    as a miss on the lookup that found it). *)

val length : t -> int
(** Resident entries. *)

val bytes : t -> int
(** Resident on-disk bytes of all entries; never exceeds {!max_bytes}. *)

val max_bytes : t -> int
