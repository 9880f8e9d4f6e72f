(* Compile memoization: a byte-bounded [Util.Lru] over compiled binaries.
   Eviction is lossless — compilation is pure, so a re-request of an
   evicted key recompiles to identical bytes; only the counters (and
   wall-clock) can tell the difference. *)

type t = Isa.Binary.t Util.Lru.t

let default_max_bytes = 128 * 1024 * 1024

(* what an entry keeps resident: the binary's byte payloads, its word
   view, the key, plus a flat ring/table bookkeeping charge *)
let entry_overhead = 128

let binary_cost key (b : Isa.Binary.t) =
  String.length b.Isa.Binary.text
  + String.length b.data
  + (8 * Array.length b.data_words)
  + String.length key + entry_overhead

(* A disabled memo is one whose budget admits nothing and that has no
   durable tier: every request misses and compiles. *)
let create ?(enabled = true) ?(max_bytes = default_max_bytes) ?backing () =
  let budget, backing =
    if enabled then (max 1 max_bytes, backing) else (0, None)
  in
  Util.Lru.create ~name:"memo" ?backing
    ~on_evict:(fun _ _ -> Telemetry.add_count "memo.evict")
    ~budget ~weight:binary_cost ()

let key ~program ~profile ~arch vector =
  let bits =
    String.init (Array.length vector) (fun i -> if vector.(i) then '1' else '0')
  in
  program ^ "|" ^ profile ^ "|" ^ Isa.Insn.arch_name arch ^ "|" ^ bits

let find_or_compile t ~key compile = Util.Lru.find_or_add t key compile

let hits t = (Util.Lru.stats t).hits
let misses t = (Util.Lru.stats t).misses
let evictions t = (Util.Lru.stats t).evictions
let bytes t = (Util.Lru.stats t).weight
let length t = (Util.Lru.stats t).length
let max_bytes = Util.Lru.budget
