(* The prefix-keyed snapshot store behind incremental compilation: a
   [Util.Lru] over the marshaled pipeline stages that [Toolchain.Pipeline]
   snapshots after every step.  The budget is bytes, not entries: one IR
   snapshot dwarfs a compressed-size integer, and what the tuner must
   bound is resident memory. *)

type t = string Util.Lru.t

let default_max_bytes = 64 * 1024 * 1024

(* ring + table bookkeeping charge per entry, beyond the payload *)
let entry_overhead = 64

let create ?(max_bytes = default_max_bytes) () =
  Util.Lru.create ~name:"incr" ~budget:(max 1 max_bytes)
    ~weight:(fun key value ->
      String.length value + String.length key + entry_overhead)
    ()

let find = Util.Lru.find
let store = Util.Lru.add

let snapshot_store t =
  { Toolchain.Pipeline.find = find t; store = store t }

let hits t = (Util.Lru.stats t).hits
let misses t = (Util.Lru.stats t).misses

let lookups t =
  let s = Util.Lru.stats t in
  s.hits + s.misses

let evictions t = (Util.Lru.stats t).evictions
let length t = (Util.Lru.stats t).length
let bytes t = (Util.Lru.stats t).weight
let max_bytes = Util.Lru.budget
