(** Compile memoization for the tuning loop — a byte-bounded LRU.

    The GA's constraint-repair step routinely maps several distinct raw
    genomes onto the same valid flag vector, and the tuner's final
    verification re-scores vectors it already compiled during the search
    — so the same [(program, profile, arch, flag-vector)] quadruple
    reaches the compiler many times per run.  Compilation is a pure
    function of that quadruple, so a memo layer can serve repeats from
    cache without any effect on results; the cache-correctness tests
    assert exactly that, and the hit/miss counters are reported in
    {!Tuner.result} so every experiment shows how much compilation it
    avoided.

    Under daemon traffic ({!Server}) one memo lives as long as the
    process and sees every job's binaries, so the table is a
    {!Util.Lru} bounded in bytes: least-recently-used binaries are
    evicted once the byte budget is exceeded, and eviction is lossless
    (recompiling an evicted key reproduces identical bytes; only
    counters and wall-clock move).  A {!Parallel.Pool} batch may look up
    and insert concurrently; compilation runs outside the lock.  The key
    includes a digest of the source program, so one memo is safe to
    share across jobs tuning different benchmarks. *)

type t

val default_max_bytes : int
(** Byte budget used when [create]'s [?max_bytes] is omitted (128 MiB). *)

val create :
  ?enabled:bool ->
  ?max_bytes:int ->
  ?backing:Isa.Binary.t Util.Lru.backing ->
  unit ->
  t
(** A fresh, empty memo bounded to [max_bytes] of resident binary
    payload.  With [~enabled:false] every request compiles (and counts
    as a miss) — the reference the differential tests compare against.
    [backing] is a durable tier ({!Session} wires the persistent
    {!Store}): read on a miss — a binary it serves still counts as a
    miss — and written through on every fresh compile. *)

val key :
  program:string -> profile:string -> arch:Isa.Insn.arch -> bool array -> string
(** The canonical [(program, profile, arch, flag-vector)] cache key;
    [program] is a digest of the benchmark's source (so memos shared
    across jobs never cross programs). *)

val find_or_compile : t -> key:string -> (unit -> Isa.Binary.t) -> Isa.Binary.t
(** Serve [key] from cache, or run the thunk, remember its result (LRU-
    evicting down to the byte budget) and return it.  Thread-safe; the
    thunk runs unlocked.  An entry bigger than the whole budget is
    returned but never admitted. *)

val hits : t -> int
(** Requests served from cache. *)

val misses : t -> int
(** Requests that ran the compiler.  [hits t + misses t] is the total
    number of compile requests made through [t].  (The fitness-level
    counterpart, layered on persisted runs, is {!Database.lookup}.) *)

val evictions : t -> int
(** Entries evicted to hold the byte budget (also counted in telemetry
    as [memo.evict]). *)

val bytes : t -> int
(** Resident payload bytes (including a fixed per-entry overhead
    charge); never exceeds {!max_bytes}. *)

val length : t -> int
(** Resident entries. *)

val max_bytes : t -> int
