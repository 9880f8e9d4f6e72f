(* The ring holds keys only; values and weights live in the table, so
   the sentinel needs no placeholder value. *)
type link = {
  key : string;
  mutable ring_prev : link;
  mutable ring_next : link;
}

type 'v entry = {
  value : 'v;
  cost : int;
  link : link;
}

type 'v backing = {
  load : string -> 'v option;
  save : string -> 'v -> unit;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  length : int;
  weight : int;
}

type 'v t = {
  budget : int;
  weigh : string -> 'v -> int;
  backing : 'v backing option;
  on_evict : string -> 'v -> unit;
  counters : (string * string) option;  (* telemetry hit / miss names *)
  table : (string, 'v entry) Hashtbl.t;
  sentinel : link;
  lock : Mutex.t;
  mutable weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?name ?backing ?(on_evict = fun _ _ -> ()) ~budget ~weight () =
  let rec sentinel = { key = ""; ring_prev = sentinel; ring_next = sentinel } in
  {
    budget;
    weigh = weight;
    backing;
    on_evict;
    counters = Option.map (fun n -> (n ^ ".hit", n ^ ".miss")) name;
    table = Hashtbl.create 256;
    sentinel;
    lock = Mutex.create ();
    weight = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let budget t = t.budget

let unlink l =
  l.ring_prev.ring_next <- l.ring_next;
  l.ring_next.ring_prev <- l.ring_prev

let push_front t l =
  l.ring_next <- t.sentinel.ring_next;
  l.ring_prev <- t.sentinel;
  t.sentinel.ring_next.ring_prev <- l;
  t.sentinel.ring_next <- l

(* Lock held.  Resident value of [key], promoted to most recent. *)
let promote t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
    unlink e.link;
    push_front t e.link;
    Some e.value
  | None -> None

(* Lock held. *)
let drop t key e =
  unlink e.link;
  Hashtbl.remove t.table key;
  t.weight <- t.weight - e.cost

(* Lock held. *)
let admit t key value =
  let cost = t.weigh key value in
  if cost <= t.budget && not (Hashtbl.mem t.table key) then begin
    let link = { key; ring_prev = t.sentinel; ring_next = t.sentinel } in
    push_front t link;
    Hashtbl.replace t.table key { value; cost; link };
    t.weight <- t.weight + cost;
    while t.weight > t.budget do
      let victim = t.sentinel.ring_prev.key in
      let e = Hashtbl.find t.table victim in
      drop t victim e;
      t.evictions <- t.evictions + 1;
      t.on_evict victim e.value
    done
  end

let find t key =
  let found =
    Mutex.protect t.lock (fun () ->
        let v = promote t key in
        if Option.is_some v then t.hits <- t.hits + 1
        else t.misses <- t.misses + 1;
        v)
  in
  Option.iter
    (fun (hit, miss) ->
      Telemetry.add_count (if Option.is_some found then hit else miss))
    t.counters;
  match (found, t.backing) with
  | None, Some b ->
    let loaded = b.load key in
    Option.iter
      (fun v -> Mutex.protect t.lock (fun () -> admit t key v))
      loaded;
    loaded
  | _ -> found

let add t key value =
  Mutex.protect t.lock (fun () -> admit t key value);
  Option.iter (fun b -> b.save key value) t.backing

let find_or_add t key compute =
  match find t key with
  | Some v -> v
  | None ->
    let v = compute () in
    add t key v;
    v

let touch t key = Mutex.protect t.lock (fun () -> promote t key)

let mem t key = Mutex.protect t.lock (fun () -> Hashtbl.mem t.table key)

let remove t key =
  Mutex.protect t.lock (fun () ->
      Option.iter (drop t key) (Hashtbl.find_opt t.table key))

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        length = Hashtbl.length t.table;
        weight = t.weight;
      })

let keys t =
  Mutex.protect t.lock (fun () ->
      let rec walk l acc =
        if l == t.sentinel then List.rev acc else walk l.ring_next (l.key :: acc)
      in
      walk t.sentinel.ring_next [])
