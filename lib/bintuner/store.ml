(* The persistent, content-addressed artifact store behind serving mode.

   Layout: every entry is one file under [dir], sharded across 256
   prefix directories by the first two hex characters of the MD5 of its
   key —

       dir/
         3f/3fa4c1…e2        one entry (header line + payload)
         a0/a0ff07…9b
         quarantine/         torn entries moved aside, kept for autopsy

   An entry file is a single header line

       bintuner-store 1 <payload-byte-length> <md5-hex-of-payload>\n

   followed by the raw payload bytes.  Every write goes to a same-shard
   temp file first and is renamed into place (rename(2) within one
   directory is atomic on POSIX), so a crash mid-write can never leave a
   half-visible entry under a live name — at worst a stale ".tmp" file,
   which [create] sweeps away.  Reads validate the header's length and
   digest against the payload; a torn or corrupt entry is moved to
   quarantine/ and reported as a miss, never an error — the daemon
   recomputes and the broken bytes stay on disk for inspection.

   Recency and the byte budget live in an in-memory [Util.Lru] index
   from key digest to on-disk cost, rebuilt at [create] by scanning the
   shards — file mtimes seed the initial recency order, so a reopened
   store evicts cold entries first.  Eviction deletes the entry file.
   File reads and temp-file writes happen outside the index lock so pool
   workers sharing the store never serialize on each other's IO.  A hit
   needs a validated read, so the store keeps its own hit/miss counters;
   the index only supplies recency, the budget and evictions. *)

type t = {
  dir : string;
  index : int Util.Lru.t;  (* key digest (the file name) -> on-disk bytes *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  quarantined : int Atomic.t;
  tmp_counter : int Atomic.t;
}

let default_max_bytes = 256 * 1024 * 1024

let magic = "bintuner-store 1"

let is_hex_shard name =
  String.length name = 2
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       name

let is_tmp name =
  (* temp files are "<digest>.tmp.<pid>.<n>" *)
  let rec has_sub i =
    if i + 4 > String.length name then false
    else if String.sub name i 4 = ".tmp" then true
    else has_sub (i + 1)
  in
  has_sub 0

let shard_dir dir digest = Filename.concat dir (String.sub digest 0 2)

let entry_path dir digest = Filename.concat (shard_dir dir digest) digest

let quarantine_dir t = Filename.concat t.dir "quarantine"

let mkdir_p dir =
  let rec make d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let create ?(max_bytes = default_max_bytes) dir =
  mkdir_p dir;
  let remove_file digest =
    try Sys.remove (entry_path dir digest) with Sys_error _ -> ()
  in
  let t =
    {
      dir;
      index =
        Util.Lru.create ~budget:(max 1 max_bytes)
          ~weight:(fun _ cost -> cost)
          ~on_evict:(fun digest _ ->
            remove_file digest;
            Telemetry.add_count "store.evict")
          ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      quarantined = Atomic.make 0;
      tmp_counter = Atomic.make 0;
    }
  in
  (* Rebuild the index from disk: sweep crash leftovers (*.tmp.*), stat
     every entry, and insert oldest-first so mtime seeds the LRU order of
     a reopened store.  An entry the budget cannot hold is deleted. *)
  let entries = ref [] in
  Array.iter
    (fun shard ->
      if is_hex_shard shard then begin
        let sdir = Filename.concat dir shard in
        Array.iter
          (fun name ->
            let path = Filename.concat sdir name in
            if is_tmp name then (try Sys.remove path with Sys_error _ -> ())
            else
              match Unix.stat path with
              | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                entries := (name, st_size, st_mtime) :: !entries
              | _ | (exception Unix.Unix_error _) -> ())
          (try Sys.readdir sdir with Sys_error _ -> [||])
      end)
    (try Sys.readdir dir with Sys_error _ -> [||]);
  List.sort (fun (_, _, a) (_, _, b) -> compare a b) !entries
  |> List.iter (fun (digest, cost, _) ->
         Util.Lru.add t.index digest cost;
         if not (Util.Lru.mem t.index digest) then remove_file digest);
  t

let dir t = t.dir

let key_digest key = Digest.to_hex (Digest.string key)

(* Move a torn entry aside (keeping the bytes for autopsy) and drop it
   from the index.  Racing quarantines of the same entry are harmless:
   the loser's rename fails silently and the index op is idempotent. *)
let quarantine t digest =
  Util.Lru.remove t.index digest;
  Atomic.incr t.quarantined;
  (try
     mkdir_p (quarantine_dir t);
     Sys.rename (entry_path t.dir digest)
       (Filename.concat (quarantine_dir t) digest)
   with Sys_error _ | Unix.Unix_error _ -> ());
  Telemetry.add_count "store.quarantine"

(* Read and validate one entry file; [Error `Torn] for anything that
   does not parse back to its own digest. *)
let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> Error `Gone
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error `Torn
        | header -> (
          match String.split_on_char ' ' header with
          | [ m1; m2; len; md5 ] when m1 ^ " " ^ m2 = magic -> (
            match int_of_string_opt len with
            | None -> Error `Torn
            | Some len when len < 0 -> Error `Torn
            | Some len -> (
              match really_input_string ic len with
              | exception End_of_file -> Error `Torn
              | payload ->
                if
                  Digest.to_hex (Digest.string payload) = md5
                  && pos_in ic = in_channel_length ic
                then Ok payload
                else Error `Torn))
          | _ -> Error `Torn))

let find t key =
  let digest = key_digest key in
  let read =
    match Util.Lru.touch t.index digest with
    | None -> Error `Cold
    | Some _ -> read_entry (entry_path t.dir digest)
  in
  match read with
  | Ok payload ->
    Atomic.incr t.hits;
    Telemetry.add_count "store.hit";
    Some payload
  | Error reason ->
    Atomic.incr t.misses;
    Telemetry.add_count "store.miss";
    (match reason with
    | `Cold -> ()
    (* a racing eviction deleted the file between the index lookup and
       the read — an ordinary miss, nothing to quarantine *)
    | `Gone -> Util.Lru.remove t.index digest
    | `Torn -> quarantine t digest);
    None

(* Any failure to write the temp file or rename it into place — a full
   disk, a shard path that is not a directory — leaves the entry
   unpublished: the caller recomputes on the next miss, so a write error
   costs a cache entry, never the job. *)
let store t key payload =
  let digest = key_digest key in
  let header =
    Printf.sprintf "%s %d %s\n" magic (String.length payload)
      (Digest.to_hex (Digest.string payload))
  in
  let cost = String.length header + String.length payload in
  (* an entry the whole budget cannot hold would only evict everything
     else on its way to being evicted itself; a resident key is
     deterministic content, so keep-first skips the write *)
  if cost <= Util.Lru.budget t.index && not (Util.Lru.mem t.index digest)
  then begin
    let sdir = shard_dir t.dir digest in
    let tmp =
      Filename.concat sdir
        (Printf.sprintf "%s.tmp.%d.%d" digest (Unix.getpid ())
           (Atomic.fetch_and_add t.tmp_counter 1))
    in
    match
      mkdir_p sdir;
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc header;
          output_string oc payload;
          close_out oc);
      Sys.rename tmp (entry_path t.dir digest)
    with
    | () -> Util.Lru.add t.index digest cost
    | exception (Sys_error _ | Unix.Unix_error _) ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Telemetry.add_count "store.write_error"
  end

(* ------------------------------------------------------------------ *)
(* Typed wrappers                                                      *)
(* ------------------------------------------------------------------ *)

(* Compiled binaries are marshaled records ([Isa.Binary.t] is pure
   data).  The payload digest already rejects torn bytes; the try guards
   against a valid-digest entry written by an incompatible build, which
   degrades to a miss rather than an exception. *)
let find_binary t key =
  match find t key with
  | None -> None
  | Some payload -> (
    match (Marshal.from_string payload 0 : Isa.Binary.t) with
    | bin -> Some bin
    | exception _ ->
      quarantine t (key_digest key);
      None)

let store_binary t key (bin : Isa.Binary.t) =
  store t key (Marshal.to_string bin [])

let find_size t key =
  match find t key with None -> None | Some s -> int_of_string_opt s

let store_size t key v = store t key (string_of_int v)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let evictions t = (Util.Lru.stats t.index).evictions
let quarantined t = Atomic.get t.quarantined
let length t = (Util.Lru.stats t.index).length
let bytes t = (Util.Lru.stats t.index).weight
let max_bytes t = Util.Lru.budget t.index
