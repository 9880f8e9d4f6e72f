(** A thread-safe, weight-bounded LRU cache with string keys — the one
    cache discipline behind the compile memo, the incremental
    compilation store, the compressed-size cache, the objective memos and the
    persistent store's residency index.

    Entries live on a doubly-linked ring through a sentinel: the
    sentinel's successor is the most recently used entry, its
    predecessor the eviction victim.  Table, ring and counters sit behind
    one mutex.  Every entry is charged a weight; once the total exceeds
    the budget, least-recently-used entries are evicted until it holds
    again.  An entry heavier than the whole budget is never admitted (it
    would only evict everything else on its way out), so a budget of 0
    admits nothing.

    The values these caches hold are pure functions of their keys, so
    inserts are keep-first: a racing duplicate leaves the resident entry
    alone.  Compute thunks and backing IO always run outside the lock, so
    callers caching different keys never serialize on each other's work;
    the eviction callback runs under it.  Under racing misses on one key
    the hit/miss split may depend on scheduling; [hits + misses] always
    equals the number of counted lookups. *)

type 'v t

type 'v backing = {
  load : string -> 'v option;
  save : string -> 'v -> unit;
}
(** A durable second tier.  [load] is read after an in-memory miss; a
    value it returns is admitted to the table and not saved again.
    [save] receives every exact insert ({!add}, and a computed
    {!find_or_add} miss), admitted or not.  Both run outside the lock
    and must be safe to call from any domain. *)

type stats = {
  hits : int;  (** counted lookups served from the table *)
  misses : int;  (** counted lookups the table could not serve *)
  evictions : int;  (** entries dropped to hold the budget *)
  length : int;  (** resident entries *)
  weight : int;  (** total weight of the resident entries, at most the budget *)
}

val create :
  ?name:string ->
  ?backing:'v backing ->
  ?on_evict:(string -> 'v -> unit) ->
  budget:int ->
  weight:(string -> 'v -> int) ->
  unit ->
  'v t
(** An empty cache holding at most [budget] total [weight].  With
    [name], every counted lookup also bumps the telemetry counter
    [<name>.hit] or [<name>.miss].  [on_evict] is called, under the lock,
    for each entry evicted to hold the budget (not for {!remove}); it
    must not call back into the cache. *)

val find : 'v t -> string -> 'v option
(** Look a key up, refreshing its recency.  Counts one hit or one miss;
    a miss reads the backing tier. *)

val find_or_add : 'v t -> string -> (unit -> 'v) -> 'v
(** {!find}, and on a total miss run the thunk (unlocked) and {!add} its
    result.  A racing caller's thunk result is returned to that caller
    even when the other insert won. *)

val add : 'v t -> string -> 'v -> unit
(** Insert (keep-first; an oversized entry is not admitted), evict down to
    the budget, and write through to the backing tier.  Counts nothing. *)

val touch : 'v t -> string -> 'v option
(** Refresh a resident key's recency and return its value, counting
    nothing and never reading the backing tier. *)

val mem : 'v t -> string -> bool

val remove : 'v t -> string -> unit
(** Drop a key if resident; counts nothing and calls no callback. *)

val stats : 'v t -> stats

val keys : 'v t -> string list
(** Resident keys, most recently used first. *)

val budget : 'v t -> int
