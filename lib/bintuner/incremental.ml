(* The store behind incremental compilation: a [Util.Lru] over the
   per-function memo [Toolchain.Pipeline] keeps — lowered indexes,
   function states, IR-step transitions, selected code and binaries.  The budget
   is bytes, not entries: one function state dwarfs a transition digest,
   and what the tuner must bound is resident memory.  The cache is not
   named, so lookups bump no telemetry counter: a compile makes hundreds
   of them, and the pipeline counts its own traffic per compile. *)

type t = {
  lru : string Util.Lru.t;
  code_hits : int Atomic.t;
  code_misses : int Atomic.t;
}

let default_max_bytes = 64 * 1024 * 1024

(* ring + table bookkeeping charge per entry, beyond the payload *)
let entry_overhead = 64

let create ?(max_bytes = default_max_bytes) () =
  {
    lru =
      Util.Lru.create ~budget:(max 1 max_bytes)
        ~weight:(fun key value ->
          String.length value + String.length key + entry_overhead)
        ();
    code_hits = Atomic.make 0;
    code_misses = Atomic.make 0;
  }

let find t key =
  let r = Util.Lru.find t.lru key in
  if Toolchain.Pipeline.is_codegen_key key then
    Atomic.incr (if r = None then t.code_misses else t.code_hits);
  r

let store t = Util.Lru.add t.lru

let snapshot_store t =
  { Toolchain.Pipeline.find = find t; store = store t }

let hits t = (Util.Lru.stats t.lru).hits
let misses t = (Util.Lru.stats t.lru).misses

let lookups t =
  let s = Util.Lru.stats t.lru in
  s.hits + s.misses

let codegen_hits t = Atomic.get t.code_hits
let codegen_misses t = Atomic.get t.code_misses
let evictions t = (Util.Lru.stats t.lru).evictions
let length t = (Util.Lru.stats t.lru).length
let bytes t = (Util.Lru.stats t.lru).weight
let max_bytes t = Util.Lru.budget t.lru
