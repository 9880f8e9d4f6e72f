(** The store behind incremental compilation.

    [Toolchain.Pipeline] keeps a content-addressed memo per function in
    it: the lowered program of each (program, profile, arch, front-end
    steps) context, every function state under its digest, every IR-step
    transition between state digests, every function's selected code,
    and every emitted binary; this module is the cache those entries live in — a
    {!Util.Lru} bounded in bytes, because the values include marshaled
    function states.  One store is shared by every worker domain of a
    tuning run through {!snapshot_store}, so a flag vector evaluated on
    one worker lets its single-bit neighbours on every other worker skip
    the passes that bit leaves unchanged.

    Caching is lossless: a compile through the store — warm, cold, or
    mid-eviction — emits bytes identical to a from-scratch compile.  The
    differential oracle in the test suite ([frozen_incremental]) and the
    cache-invariant tests pin this down.  Telemetry sees the traffic
    through the pipeline's [pipeline.fn.*] and [codegen.fn.*] counters,
    aggregated per compile. *)

type t

val create : ?max_bytes:int -> unit -> t
(** A fresh store bounded to [max_bytes] of resident payload
    (default 64 MiB).  Least-recently-used entries are evicted once the
    budget is exceeded; an entry bigger than the whole budget is never
    admitted. *)

val snapshot_store : t -> Toolchain.Pipeline.snapshot_store
(** The closure record to inject into [Pipeline.compile_flags] /
    [compile] / [apply_passes].  Safe to share across domains. *)

val find : t -> string -> string option
(** Look a key up, refreshing its recency.  Counts one hit or one
    miss. *)

val store : t -> string -> string -> unit
(** Insert an entry (keep-first on a racing duplicate), evicting from
    the LRU tail until the byte budget holds. *)

val hits : t -> int

val misses : t -> int

val lookups : t -> int
(** [lookups t = hits t + misses t] — the conservation invariant the
    cache tests assert. *)

val codegen_hits : t -> int
(** Lookups of a function's selected code that hit (see
    [Toolchain.Pipeline.is_codegen_key]); counted within {!hits}. *)

val codegen_misses : t -> int
(** Lookups of a function's selected code that missed; counted within
    {!misses}. *)

val evictions : t -> int

val length : t -> int
(** Resident entries. *)

val bytes : t -> int
(** Resident payload bytes (including a fixed per-entry overhead
    charge); never exceeds {!max_bytes}. *)

val max_bytes : t -> int
