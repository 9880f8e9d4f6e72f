(* Content-addressed [Util.Lru] over compressed sizes, one entry of
   weight 1 per stream (or ordered stream pair) digest. *)

(* An optional second, durable tier (e.g. [Bintuner.Store] in serving
   mode): consulted after an in-memory miss, written through on every
   exact insert.  Only ever holds exact sizes, so hitting it can no more
   change a result than hitting the table can. *)
type backing = {
  load : string -> int option;
  save : string -> int -> unit;
}

type t = {
  level : Lz.level;
  lru : int Util.Lru.t;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ?level ?backing () =
  let level = match level with Some l -> l | None -> Lz.default_level () in
  let backing =
    Option.map
      (fun b ->
        {
          Util.Lru.load =
            (fun key ->
              let v = b.load key in
              if Option.is_some v then
                Telemetry.add_count "sizecache.backing_hit";
              v);
          save = b.save;
        })
      backing
  in
  {
    level;
    lru =
      Util.Lru.create ~name:"sizecache" ?backing ~budget:(max 1 capacity)
        ~weight:(fun _ _ -> 1)
        ();
  }

let level t = t.level
let capacity t = Util.Lru.budget t.lru

(* Digests are raw 16-byte MD5 strings, so a one-byte tag keeps solo and
   pair keys from ever colliding. *)
let solo_key x = "S" ^ Digest.string x
let pair_key x y = "P" ^ Digest.string x ^ Digest.string y

(* Probe-only / insert-only entry points for the NCD early-exit path:
   a pruned pair compression yields only an upper bound, which must
   never be inserted as if it were the exact size — so the caller
   probes first, computes (possibly aborting) outside the lock, and
   inserts only exact results. *)
let peek_pair t x y = Util.Lru.find t.lru (pair_key x y)
let insert_pair t x y v = Util.Lru.add t.lru (pair_key x y) v

let size t x =
  Util.Lru.find_or_add t.lru (solo_key x) (fun () ->
      Lz.compressed_size ~level:t.level x)

let size_pair t x y =
  Util.Lru.find_or_add t.lru (pair_key x y) (fun () ->
      Lz.compressed_size_pair ~level:t.level x y)

let hits t = (Util.Lru.stats t.lru).hits
let misses t = (Util.Lru.stats t.lru).misses
let length t = (Util.Lru.stats t.lru).length
